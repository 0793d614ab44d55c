//! `reproduce bench-diff`: metric-by-metric comparison of two
//! `BENCH_*.json` summaries.
//!
//! The summaries written by [`crate::summary`] exist so that successive
//! runs can be compared mechanically; this module is the comparator. It
//! parses two summary files, matches metrics by name, classifies each
//! pair as improved / unchanged / regressed under a configurable relative
//! tolerance, and reports a nonzero failure count when anything regressed
//! or disappeared. Direction is inferred from the metric's unit: speedups
//! and throughputs regress when they shrink, latencies when they grow,
//! and unknown units regress on any drift beyond tolerance.
//!
//! A `--structural` comparison checks only that both files report the
//! same metric *names* — the right gate when comparing a `--smoke` run
//! against committed full-size results, where values legitimately differ
//! but a vanished metric means an experiment silently lost coverage.

use std::fmt::Write as _;

use serde::Deserialize;

/// The subset of a `BENCH_*.json` summary the comparator needs.
///
/// Deserialized separately from [`crate::summary::BenchSummary`] (whose
/// `unit` field is a `&'static str` chosen at emission time); unknown
/// fields are ignored so older or newer summaries still parse.
#[derive(Debug, Clone, Deserialize)]
pub struct LoadedSummary {
    /// Experiment id, e.g. `"E22"`.
    pub experiment: String,
    /// Whether the run used `--quick` sizes.
    pub quick: bool,
    /// The metrics to compare.
    pub metrics: Vec<LoadedMetric>,
}

/// One parsed metric.
#[derive(Debug, Clone, Deserialize)]
pub struct LoadedMetric {
    /// Stable metric name.
    pub name: String,
    /// Metric value.
    pub value: f64,
    /// Unit label (owned here — drives the comparison direction).
    pub unit: String,
}

/// Comparison options.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative tolerance: changes with `|new - old| / |old| <= tol` are
    /// classified as unchanged.
    pub tol: f64,
    /// Compare metric presence only, ignoring values.
    pub structural: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tol: 0.0,
            structural: false,
        }
    }
}

/// How one metric pair compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance (or present on both sides, structurally).
    Unchanged,
    /// Moved beyond tolerance in the good direction.
    Improved,
    /// Moved beyond tolerance in the bad direction — a failure.
    Regressed,
    /// Present in the old summary but missing from the new — a failure.
    MissingInNew,
    /// Present only in the new summary (informational in value mode, a
    /// failure under `--structural` where the sets must match exactly).
    OnlyInNew,
}

/// One row of the comparison report.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric name.
    pub name: String,
    /// Unit label (from whichever side has the metric).
    pub unit: String,
    /// Old value, if present.
    pub old: Option<f64>,
    /// New value, if present.
    pub new: Option<f64>,
    /// Signed relative change `(new - old) / |old|`, when both exist.
    pub rel_change: Option<f64>,
    /// Classification.
    pub status: Status,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Experiment id shared by both summaries.
    pub experiment: String,
    /// One row per metric name seen on either side, old-file order first.
    pub rows: Vec<DiffRow>,
    /// Whether the two runs used different `quick` settings (values are
    /// then expected to differ; `--structural` is usually the right mode).
    pub quick_mismatch: bool,
    structural: bool,
}

/// Whether larger values of `unit` are better, or `None` when the
/// direction is unknown (then any drift beyond tolerance is a regression).
fn higher_is_better(unit: &str) -> Option<bool> {
    match unit {
        "x" | "frac" | "GB/s" | "rows/s" | "jobs/s" | "ops/s" => Some(true),
        "s" | "ms" | "us" | "ns" => Some(false),
        _ => None,
    }
}

impl DiffReport {
    /// Rows that constitute failures: regressions, metrics that vanished,
    /// and (structurally) metrics that appeared.
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| match r.status {
                Status::Regressed | Status::MissingInNew => true,
                Status::OnlyInNew => self.structural,
                Status::Unchanged | Status::Improved => false,
            })
            .count()
    }

    /// Renders the report as an aligned text listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench-diff {}: {} metrics, {} failures{}",
            self.experiment,
            self.rows.len(),
            self.failures(),
            if self.quick_mismatch {
                " (quick/full mismatch — values not directly comparable)"
            } else {
                ""
            }
        );
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &self.rows {
            let tag = match r.status {
                Status::Unchanged => "  ok    ",
                Status::Improved => "  better",
                Status::Regressed => "  WORSE ",
                Status::MissingInNew => "  GONE  ",
                Status::OnlyInNew => "  new   ",
            };
            let vals = match (r.old, r.new) {
                (Some(o), Some(n)) => {
                    let pct = r.rel_change.unwrap_or(0.0) * 100.0;
                    format!("{o:.6} -> {n:.6} {} ({pct:+.2}%)", r.unit)
                }
                (Some(o), None) => format!("{o:.6} {} -> (missing)", r.unit),
                (None, Some(n)) => format!("(absent) -> {n:.6} {}", r.unit),
                (None, None) => String::new(),
            };
            let _ = writeln!(out, "{tag}  {:width$}  {vals}", r.name);
        }
        out
    }
}

/// Compares two summary JSON documents.
///
/// # Errors
/// Returns a message when either document fails to parse or the two
/// summaries describe different experiments.
pub fn diff_summaries(
    old_json: &str,
    new_json: &str,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    let old: LoadedSummary =
        serde_json::from_str(old_json).map_err(|e| format!("old summary: {e}"))?;
    let new: LoadedSummary =
        serde_json::from_str(new_json).map_err(|e| format!("new summary: {e}"))?;
    if old.experiment != new.experiment {
        return Err(format!(
            "experiment mismatch: old is {}, new is {}",
            old.experiment, new.experiment
        ));
    }
    let mut rows = Vec::with_capacity(old.metrics.len());
    for om in &old.metrics {
        let row = match new.metrics.iter().find(|m| m.name == om.name) {
            None => DiffRow {
                name: om.name.clone(),
                unit: om.unit.clone(),
                old: Some(om.value),
                new: None,
                rel_change: None,
                status: Status::MissingInNew,
            },
            Some(nm) => {
                let rel = if om.value == 0.0 {
                    if nm.value == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY.copysign(nm.value)
                    }
                } else {
                    (nm.value - om.value) / om.value.abs()
                };
                let status = if opts.structural || rel.abs() <= opts.tol {
                    Status::Unchanged
                } else {
                    match higher_is_better(&om.unit) {
                        Some(true) => {
                            if rel > 0.0 {
                                Status::Improved
                            } else {
                                Status::Regressed
                            }
                        }
                        Some(false) => {
                            if rel < 0.0 {
                                Status::Improved
                            } else {
                                Status::Regressed
                            }
                        }
                        None => Status::Regressed,
                    }
                };
                DiffRow {
                    name: om.name.clone(),
                    unit: om.unit.clone(),
                    old: Some(om.value),
                    new: Some(nm.value),
                    rel_change: Some(rel),
                    status,
                }
            }
        };
        rows.push(row);
    }
    for nm in &new.metrics {
        if !old.metrics.iter().any(|m| m.name == nm.name) {
            rows.push(DiffRow {
                name: nm.name.clone(),
                unit: nm.unit.clone(),
                old: None,
                new: Some(nm.value),
                rel_change: None,
                status: Status::OnlyInNew,
            });
        }
    }
    Ok(DiffReport {
        experiment: old.experiment,
        rows,
        quick_mismatch: old.quick != new.quick,
        structural: opts.structural,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_json(experiment: &str, quick: bool, metrics: &[(&str, f64, &str)]) -> String {
        let ms: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!(r#"{{"name":"{n}","value":{v},"unit":"{u}"}}"#))
            .collect();
        format!(
            r#"{{"experiment":"{experiment}","artifact":"T","title":"t","quick":{quick},"host":{{"os":"linux","arch":"x86_64","available_parallelism":8,"rcr_threads":null,"rcr_tile":null}},"metrics":[{}],"checksum":"00"}}"#,
            ms.join(",")
        )
    }

    #[test]
    fn identical_summaries_have_no_failures() {
        let j = summary_json("E22", false, &[("jit_speedup_vs_fused/dot", 2.2, "x")]);
        let r = diff_summaries(&j, &j, &DiffOptions::default()).unwrap();
        assert_eq!(r.failures(), 0);
        assert!(r.rows.iter().all(|x| x.status == Status::Unchanged));
        assert!(!r.quick_mismatch);
    }

    #[test]
    fn direction_depends_on_unit() {
        let old = summary_json("E1", false, &[("speed", 2.0, "x"), ("lat", 10.0, "us")]);
        // Speedup shrank, latency shrank: the first regresses, the second
        // improves.
        let new = summary_json("E1", false, &[("speed", 1.0, "x"), ("lat", 5.0, "us")]);
        let r = diff_summaries(&old, &new, &DiffOptions::default()).unwrap();
        assert_eq!(r.rows[0].status, Status::Regressed);
        assert_eq!(r.rows[1].status, Status::Improved);
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn tolerance_absorbs_small_drift() {
        let old = summary_json("E1", false, &[("speed", 2.0, "x")]);
        let new = summary_json("E1", false, &[("speed", 1.9, "x")]);
        let strict = diff_summaries(&old, &new, &DiffOptions::default()).unwrap();
        assert_eq!(strict.failures(), 1);
        let lax = diff_summaries(
            &old,
            &new,
            &DiffOptions {
                tol: 0.10,
                structural: false,
            },
        )
        .unwrap();
        assert_eq!(lax.failures(), 0);
    }

    #[test]
    fn unknown_units_regress_on_any_drift() {
        let old = summary_json("E1", false, &[("weird", 1.0, "wombats")]);
        let more = summary_json("E1", false, &[("weird", 2.0, "wombats")]);
        let r = diff_summaries(&old, &more, &DiffOptions::default()).unwrap();
        assert_eq!(r.rows[0].status, Status::Regressed);
    }

    #[test]
    fn missing_metric_is_a_failure_and_new_metric_is_not() {
        let old = summary_json("E1", false, &[("a", 1.0, "x"), ("b", 1.0, "x")]);
        let new = summary_json("E1", false, &[("a", 1.0, "x"), ("c", 1.0, "x")]);
        let r = diff_summaries(&old, &new, &DiffOptions::default()).unwrap();
        assert_eq!(r.failures(), 1, "{}", r.render());
        assert!(r
            .rows
            .iter()
            .any(|x| x.name == "b" && x.status == Status::MissingInNew));
        assert!(r
            .rows
            .iter()
            .any(|x| x.name == "c" && x.status == Status::OnlyInNew));
    }

    #[test]
    fn structural_mode_checks_names_not_values() {
        let full = summary_json("E22", false, &[("jit_speedup_vs_fused/dot", 2.2, "x")]);
        let smoke = summary_json("E22", true, &[("jit_speedup_vs_fused/dot", 1.1, "x")]);
        let opts = DiffOptions {
            tol: 0.0,
            structural: true,
        };
        let r = diff_summaries(&full, &smoke, &opts).unwrap();
        assert_eq!(r.failures(), 0, "{}", r.render());
        assert!(r.quick_mismatch);
        // ...but a vanished or extra metric still fails structurally.
        let missing = summary_json("E22", true, &[]);
        let r = diff_summaries(&full, &missing, &opts).unwrap();
        assert_eq!(r.failures(), 1);
        let extra = summary_json(
            "E22",
            true,
            &[
                ("jit_speedup_vs_fused/dot", 1.1, "x"),
                ("surprise", 1.0, "x"),
            ],
        );
        let r = diff_summaries(&full, &extra, &opts).unwrap();
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn experiment_mismatch_is_an_error() {
        let a = summary_json("E1", false, &[]);
        let b = summary_json("E2", false, &[]);
        let err = diff_summaries(&a, &b, &DiffOptions::default()).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn real_emitted_summary_round_trips() {
        // The comparator must parse what `summary::BenchSummary` emits.
        let metric = crate::summary::Metric {
            name: "jit_speedup_vs_fused/dot".to_owned(),
            value: 2.25,
            unit: "x",
        };
        let s = crate::summary::BenchSummary::new(&crate::STUDIES[21], true, vec![metric]);
        let json = serde_json::to_string_pretty(&s).unwrap();
        let r = diff_summaries(&json, &json, &DiffOptions::default()).unwrap();
        assert_eq!(r.failures(), 0);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].unit, "x");
    }

    #[test]
    fn zero_baseline_handled() {
        let old = summary_json("E1", false, &[("z", 0.0, "x")]);
        let same = diff_summaries(&old, &old, &DiffOptions::default()).unwrap();
        assert_eq!(same.failures(), 0);
        let new = summary_json("E1", false, &[("z", 1.0, "x")]);
        let r = diff_summaries(&old, &new, &DiffOptions::default()).unwrap();
        assert_eq!(r.rows[0].status, Status::Improved);
    }

    #[test]
    fn render_lists_every_row() {
        let old = summary_json("E1", false, &[("a", 1.0, "x"), ("b", 2.0, "us")]);
        let new = summary_json("E1", false, &[("a", 0.5, "x")]);
        let r = diff_summaries(&old, &new, &DiffOptions::default()).unwrap();
        let text = r.render();
        assert!(text.contains("WORSE"), "{text}");
        assert!(text.contains("GONE"), "{text}");
        assert!(text.contains("2 failures"), "{text}");
    }
}
