//! Artifact-output integration: the JSON payloads the `reproduce` binary
//! writes must be valid, self-describing, and stable in shape — they are
//! the interface downstream users script against.

use rcr_core::experiments::Experiments;
use rcr_core::perfgap::GapConfig;
use rcr_core::MASTER_SEED;
use serde_json::Value;

fn ex() -> Experiments {
    Experiments::new(MASTER_SEED)
}

fn to_json<T: serde::Serialize>(v: &T) -> Value {
    serde_json::to_value(v).expect("experiment outputs serialize")
}

#[test]
fn e2_json_shape() {
    let shifts = ex().e2_language_shift().expect("E2");
    let j = to_json(&shifts);
    let rows = j.as_array().expect("array of rows");
    assert_eq!(rows.len(), 10);
    for row in rows {
        for key in [
            "item",
            "count_before",
            "n_before",
            "count_after",
            "n_after",
            "p_before",
            "p_after",
            "ci_before",
            "ci_after",
            "z",
            "p_raw",
            "p_adj",
            "cohens_h",
            "effect",
        ] {
            assert!(row.get(key).is_some(), "missing key `{key}` in {row}");
        }
        // Counts never exceed denominators.
        let c = row["count_after"].as_u64().expect("count is u64");
        let n = row["n_after"].as_u64().expect("n is u64");
        assert!(c <= n);
    }
}

#[test]
fn e3_json_shape() {
    let trends = ex().e3_language_trends().expect("E3");
    let j = to_json(&trends);
    for t in j.as_array().expect("array") {
        assert!(t["language"].is_string());
        let pts = t["points"].as_array().expect("points array");
        assert_eq!(pts.len(), 14);
        assert_eq!(t["band"].as_array().expect("band array").len(), 14);
        assert!(t["slope_per_year"].is_number());
    }
}

#[test]
fn e5_json_shape_quick() {
    let gaps = rcr_core::perfgap::measure_gaps(&GapConfig::quick()).expect("E5");
    let j = to_json(&gaps);
    let rows = j.as_array().expect("array");
    assert_eq!(rows.len(), 4);
    for row in rows {
        let tiers = row.get("tiers").expect("tiers object");
        for key in [
            "interp",
            "vm",
            "vm_fused",
            "vectorized",
            "native_naive",
            "native_optimized",
            "native_parallel",
        ] {
            assert!(tiers.get(key).is_some(), "missing tier `{key}`");
        }
        let interp = &tiers["interp"];
        assert!(interp["median_s"].as_f64().expect("median_s") > 0.0);
    }
}

#[test]
fn e16_json_shape_quick() {
    let closures = rcr_core::perfgap::gap_closure(
        &rcr_core::perfgap::measure_gaps(&GapConfig::quick()).expect("E16"),
    );
    let j = to_json(&closures);
    let rows = j.as_array().expect("array");
    assert_eq!(rows.len(), 4);
    for row in rows {
        for key in [
            "kernel",
            "size",
            "vm_s",
            "vm_fused_s",
            "native_best_s",
            "speedup",
            "closure_frac",
        ] {
            assert!(row.get(key).is_some(), "missing key `{key}` in {row}");
        }
        assert!(row["speedup"].as_f64().expect("speedup") > 0.0);
        assert!(row["closure_frac"]
            .as_f64()
            .expect("closure_frac")
            .is_finite());
    }
}

#[test]
fn e17_json_shape_quick() {
    let points = rcr_core::schedstudy::run(&GapConfig::quick()).expect("E17");
    let j = to_json(&points);
    let rows = j.as_array().expect("array");
    assert_eq!(rows.len(), 12, "4 workloads x 3 schedulers");
    for row in rows {
        for key in [
            "workload",
            "scheduler",
            "threads",
            "calls",
            "median_s",
            "per_call_us",
            "speedup_vs_spawn_static",
            "efficiency",
            "checksum",
        ] {
            assert!(row.get(key).is_some(), "missing key `{key}` in {row}");
        }
        assert!(row["median_s"].as_f64().expect("median_s") > 0.0);
    }
    // Checksums are identical across the three schedulers of a workload —
    // the determinism contract downstream scripts can rely on.
    for chunk in rows.chunks(3) {
        let reference = chunk[0]["checksum"].as_u64().expect("checksum u64");
        for row in chunk {
            assert_eq!(row["workload"], chunk[0]["workload"]);
            assert_eq!(row["checksum"].as_u64().expect("checksum u64"), reference);
        }
    }
}

#[test]
fn e18_json_shape_quick() {
    let points = rcr_core::memstudy::run(&GapConfig::quick()).expect("E18");
    let j = to_json(&points);
    let rows = j.as_array().expect("array");
    assert_eq!(rows.len(), 96, "6 kernels x 4 levels x 4 tiers");
    for row in rows {
        for key in [
            "kernel",
            "level",
            "working_set_bytes",
            "n",
            "tier",
            "median_s",
            "gflops",
            "gbps",
            "speedup_vs_serial",
            "verified",
        ] {
            assert!(row.get(key).is_some(), "missing key `{key}` in {row}");
        }
        assert!(row["median_s"].as_f64().expect("median_s") > 0.0);
        // Returned rows are verified by construction — a mismatch aborts
        // the experiment instead of producing a row.
        assert!(matches!(row["verified"], Value::Bool(true)), "{row}");
    }
    // Each (kernel, level) cell carries all four tiers, serial first.
    for cell in rows.chunks(4) {
        assert_eq!(cell[0]["tier"].as_str(), Some("serial"));
        for row in cell {
            assert_eq!(row["kernel"], cell[0]["kernel"]);
            assert_eq!(row["level"], cell[0]["level"]);
        }
    }
}

#[test]
fn e9_json_shape() {
    let outcomes = ex().e9_sched_policies(300).expect("E9");
    let j = to_json(&outcomes);
    let rows = j.as_array().expect("array");
    assert_eq!(rows.len(), 4);
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r["policy"].as_str().expect("policy name"))
        .collect();
    assert!(names.contains(&"FCFS"));
    assert!(names.contains(&"EASY-backfill"));
    for r in rows {
        assert!(r["utilization"].as_f64().expect("utilization") <= 1.0);
        assert!(!r["cdf"].as_array().expect("cdf").is_empty());
    }
}

#[test]
fn e13_json_shape() {
    let rows = ex().e13_theme_shift().expect("E13");
    let j = to_json(&rows);
    let arr = j.as_array().expect("array of theme rows");
    assert_eq!(arr.len(), 7);
    for row in arr {
        assert!(row["item"].is_string());
        let p = row["p_adj"].as_f64().expect("p_adj");
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn csv_outputs_are_machine_readable() {
    // Every table renders to CSV whose row count matches and whose header
    // is the first line.
    let e = ex();
    let t = rcr_bench::render::shift_table("x", &e.e2_language_shift().expect("E2"));
    let csv = t.render_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 10);
    assert!(lines[0].starts_with("item,"));
    // Fields per row match the header.
    let n_cols = lines[0].split(',').count();
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), n_cols, "ragged CSV row: {l}");
    }
}

#[test]
fn svg_outputs_are_well_formed_enough() {
    // Cheap structural XML checks on every figure: tags balance and no
    // unescaped ampersands/angle brackets in text content.
    let e = ex();
    let figs = [
        rcr_bench::render::e3_figure(&e.e3_language_trends().expect("E3")),
        rcr_bench::render::e9_figure(&e.e9_sched_policies(200).expect("E9")),
        rcr_bench::render::e10_figure(&e.e10_load_sweep(150, &[0.6, 0.9]).expect("E10")),
        rcr_bench::render::e12_figure(&e.e12_pain_points().expect("E12")),
    ];
    for (i, f) in figs.iter().enumerate() {
        for tag in ["svg", "text"] {
            let open = f.matches(&format!("<{tag}")).count();
            let close = f.matches(&format!("</{tag}>")).count();
            assert_eq!(open, close, "figure {i}: unbalanced <{tag}>");
        }
        assert!(!f.contains("NaN"), "figure {i} contains NaN coordinates");
    }
}
