//! End-to-end integration: the full pipeline from synthetic cohorts through
//! statistics to rendered artifacts, crossing every crate boundary.

use rcr_core::experiments::Experiments;
use rcr_core::perfgap::GapConfig;
use rcr_core::{questionnaire as q, MASTER_SEED};

fn ex() -> Experiments {
    Experiments::new(MASTER_SEED)
}

#[test]
fn every_survey_experiment_produces_renderable_output() {
    let e = ex();

    let d = e.e1_demographics().expect("E1");
    let t1 = rcr_bench::render::e1_table(&d);
    assert!(t1.render_ascii().lines().count() > 8);

    let shifts = e.e2_language_shift().expect("E2");
    let t2 = rcr_bench::render::shift_table("t", &shifts);
    assert_eq!(t2.n_rows(), 10);

    let trends = e.e3_language_trends().expect("E3");
    assert!(rcr_bench::render::e3_figure(&trends).contains("</svg>"));

    let par = e.e4_parallelism_shift().expect("E4");
    assert_eq!(par.len(), 5);

    let prac = e.e7_practice_shift().expect("E7");
    assert_eq!(prac.len(), 6);

    let gpu = e.e8_gpu_by_field().expect("E8");
    assert!(rcr_bench::render::e8_table(&gpu)
        .render_csv()
        .contains("neuroscience"));

    let pain = e.e12_pain_points().expect("E12");
    assert!(rcr_bench::render::e12_figure(&pain).contains("</svg>"));
}

#[test]
fn performance_experiments_run_quick_and_render() {
    let cfg = GapConfig::quick();
    let gaps = rcr_core::perfgap::measure_gaps(&cfg).expect("E5");
    assert!(rcr_bench::render::e5_figure(&gaps).contains("</svg>"));
    let e11 = rcr_bench::render::e11_table(&gaps);
    assert_eq!(e11.n_rows(), 4);
    assert!(
        e11.render_ascii().contains("fused VM gap"),
        "E11 carries the fused-VM ablation column"
    );
    let curves = rcr_core::perfgap::measure_scaling(&cfg).expect("E6");
    assert!(rcr_bench::render::e6_figure(&curves).contains("ideal"));
    let closures = rcr_core::perfgap::gap_closure(&gaps);
    assert_eq!(closures.len(), 4);
    assert!(rcr_bench::render::e16_figure(&closures).contains("</svg>"));
    assert_eq!(rcr_bench::render::e16_table(&closures).n_rows(), 4);
    let points = rcr_core::schedstudy::run(&cfg).expect("E17");
    assert_eq!(points.len(), 12);
    assert!(rcr_bench::render::e17_figure(&points).contains("</svg>"));
    assert_eq!(rcr_bench::render::e17_table(&points).n_rows(), 12);
}

#[test]
fn serving_overload_study_runs_and_renders() {
    // The quick E19 sweep self-verifies the robustness contract (outcome
    // closure, p99 within deadline) in every cell before returning.
    let points = rcr_core::servestudy::run(MASTER_SEED, &GapConfig::quick()).expect("E19");
    assert_eq!(points.len(), 9, "3 fault levels x 3 offered loads");
    assert!(rcr_bench::render::e19_figure(&points).contains("</svg>"));
    assert_eq!(rcr_bench::render::e19_table(&points).n_rows(), 9);
}

#[test]
fn cluster_experiments_run_and_render() {
    let e = ex();
    let outcomes = e.e9_sched_policies(400).expect("E9");
    assert!(rcr_bench::render::e9_figure(&outcomes).contains("FCFS"));
    let pts = e.e10_load_sweep(250, &[0.6, 0.9]).expect("E10");
    assert!(rcr_bench::render::e10_figure(&pts).contains("EASY-backfill"));
    let res = e.e14_resilience(150).expect("E14");
    assert!(rcr_bench::render::e14_figure(&res).contains("goodput"));
    assert_eq!(rcr_bench::render::e14_table(&res).n_rows(), 20);
}

#[test]
fn headline_findings_hold_end_to_end() {
    let e = ex();
    // The paper's four headline claims, asserted over the whole pipeline.
    let langs = e.e2_language_shift().expect("E2");
    let pick = |item: &str| langs.iter().find(|s| s.item == item).expect("battery item");
    // 1. Python became dominant.
    assert!(pick("python").p_after > 0.75);
    assert!(pick("python").significant(0.001));
    // 2. The compiled-language share fell.
    assert!(pick("fortran").p_after < pick("fortran").p_before);
    // 3. Version control went mainstream while CI stayed minority.
    let prac = e.e7_practice_shift().expect("E7");
    let vcs = prac
        .iter()
        .find(|s| s.item == "version-control")
        .expect("vcs");
    let ci = prac
        .iter()
        .find(|s| s.item == "continuous-integration")
        .expect("ci");
    assert!(vcs.p_after > 0.75);
    assert!(ci.p_after < 0.5);
    // 4. GPU adoption multiplied.
    let par = e.e4_parallelism_shift().expect("E4");
    let gpu = par.iter().find(|s| s.item == "gpu").expect("gpu");
    assert!(gpu.p_after > 3.0 * gpu.p_before.max(0.01));
}

#[test]
fn experiment_index_matches_drivers() {
    // The study table the reproduce binary runs lists every experiment once,
    // in id order.
    let ids: Vec<&str> = rcr_bench::STUDIES.iter().map(|s| s.id).collect();
    assert_eq!(
        ids,
        vec![
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
            "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23"
        ]
    );
}

#[test]
fn sim_study_arms_agree_end_to_end() {
    // E23's verification gate (every arm's digest checked against the
    // serial-heap reference, streamed vs materialized replays compared)
    // runs inside the driver; a quick sweep exercising it end-to-end is
    // the regression test that the windowed runner never drifts from the
    // serial baseline.
    let points = rcr_core::simstudy::run(MASTER_SEED, &GapConfig::quick()).expect("E23 quick");
    assert!(points.iter().all(|p| p.verified), "unverified arm");
    assert_eq!(points.len() % rcr_core::simstudy::ARMS.len(), 0);
    assert!(rcr_bench::render::e23_figure(&points).contains("</svg>"));
    assert_eq!(rcr_bench::render::e23_table(&points).n_rows(), points.len());
}

#[test]
fn columnar_study_agrees_across_tiers_end_to_end() {
    // E21's own verification gate (checksum + struct equality against the
    // row reference) runs inside the driver; a quick sweep exercising it
    // end-to-end is the regression test that the columnar engine never
    // drifts from the row engine.
    let points = rcr_core::colstudy::run(MASTER_SEED, &GapConfig::quick()).expect("E21 quick");
    assert!(points.iter().all(|p| p.verified), "unverified cell");
    assert_eq!(points.len() % rcr_core::colstudy::TIERS.len(), 0);
    assert!(rcr_bench::render::e21_figure(&points).contains("</svg>"));
    assert_eq!(rcr_bench::render::e21_table(&points).n_rows(), points.len());
}

#[test]
fn lint_study_runs_and_renders() {
    let study = rcr_core::lintstudy::run_study(MASTER_SEED, 8).expect("E15");
    assert_eq!(study.clean_with_findings, 0, "lint false positive");
    assert_eq!(study.classes.len(), 5);
    assert!(rcr_bench::render::detection_figure("E15", &study.classes).contains("</svg>"));
    assert_eq!(
        rcr_bench::render::detection_table("E15", &study.classes).n_rows(),
        5
    );
    // Byte-identical reruns: the study is a function of the master seed.
    let again = rcr_core::lintstudy::run_study(MASTER_SEED, 8).expect("E15 rerun");
    assert_eq!(
        serde_json::to_string(&study).expect("serializes"),
        serde_json::to_string(&again).expect("serializes")
    );
}

#[test]
fn survey_weighting_integrates_with_synthetic_cohorts() {
    use std::collections::BTreeMap;

    use rcr_survey::weight::Weights;

    let (before, after) = ex().cohorts();
    // Post-stratify the 2024 cohort to the 2011 field mix, then verify the
    // weighted field shares match the 2011 shares.
    let (counts_2011, n_2011) = before
        .single_choice_counts(q::Q_FIELD)
        .expect("field counts");
    let targets: BTreeMap<String, f64> = counts_2011
        .iter()
        .map(|(f, c)| (f.clone(), (*c as f64 / n_2011 as f64).max(1e-6)))
        .collect();
    let w = Weights::post_stratify(&after, q::Q_FIELD, &targets).expect("weighting succeeds");
    for (field, c) in &counts_2011 {
        let target_share = *c as f64 / n_2011 as f64;
        let weighted = w
            .weighted_proportion(&after, |r| {
                r.answer(q::Q_FIELD).and_then(|a| a.as_choice()) == Some(field.as_str())
            })
            .expect("cohort non-empty");
        assert!(
            (weighted - target_share).abs() < 1e-9,
            "{field}: weighted {weighted} vs target {target_share}"
        );
    }
    assert!(w.effective_sample_size() < after.len() as f64);
}

#[test]
fn cohort_json_round_trip_preserves_analysis_results() {
    let (before, after) = ex().cohorts();
    let json = rcr_survey::io::cohort_to_json(&after).expect("serialize");
    let restored = rcr_survey::io::cohort_from_json(&json).expect("deserialize");
    let a = rcr_core::compare::compare_multi_choice(&before, &after, q::Q_LANGS).expect("direct");
    let b =
        rcr_core::compare::compare_multi_choice(&before, &restored, q::Q_LANGS).expect("restored");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.count_after, y.count_after);
        assert_eq!(x.p_raw, y.p_raw);
    }
}
