//! The cohort-comparison engine: item-by-item shifts between survey waves
//! with inference and multiplicity control — the machinery behind tables
//! E2, E4, E7, E8, and E12.

use serde::Serialize;

use rcr_stats::ci::{wilson, Interval};
use rcr_stats::effect::{cohen_label, cohens_h};
use rcr_stats::multiplicity::Correction;
use rcr_stats::table::ContingencyTable;
use rcr_stats::tests::{fisher_exact_2x2, mann_whitney_u, two_proportion_z};
use rcr_survey::cohort::Cohort;

use crate::{Error, Result};

/// Confidence level used for every interval in the paper tables.
pub const CI_LEVEL: f64 = 0.95;

/// One option's shift between two cohorts.
#[derive(Debug, Clone, Serialize)]
pub struct ItemShift {
    /// Option label (e.g. `"python"`).
    pub item: String,
    /// Selections in the *before* cohort.
    pub count_before: u64,
    /// Respondents answering the item in the *before* cohort.
    pub n_before: u64,
    /// Selections in the *after* cohort.
    pub count_after: u64,
    /// Respondents answering the item in the *after* cohort.
    pub n_after: u64,
    /// Share in the before cohort.
    pub p_before: f64,
    /// Share in the after cohort.
    pub p_after: f64,
    /// Wilson 95% CI of the before share, as `(lo, hi)`.
    pub ci_before: (f64, f64),
    /// Wilson 95% CI of the after share, as `(lo, hi)`.
    pub ci_after: (f64, f64),
    /// Two-proportion z statistic (after minus before in sign).
    pub z: f64,
    /// Raw two-sided p-value.
    pub p_raw: f64,
    /// Benjamini–Hochberg adjusted p-value across the battery.
    pub p_adj: f64,
    /// Cohen's h effect size (after vs before).
    pub cohens_h: f64,
    /// Qualitative effect label ("negligible" … "large").
    pub effect: &'static str,
}

impl ItemShift {
    /// True when the adjusted p-value clears `alpha`.
    pub fn significant(&self, alpha: f64) -> bool {
        self.p_adj < alpha
    }
}

fn interval_pair(i: Interval) -> (f64, f64) {
    (i.lo, i.hi)
}

/// Compares a multi-choice question between two cohorts, one row per
/// option, with a Benjamini–Hochberg correction across all options.
///
/// # Errors
/// Survey errors (unknown question / kind mismatch) and statistics errors
/// (a cohort where nobody answered the item).
pub fn compare_multi_choice(
    before: &Cohort,
    after: &Cohort,
    question: &str,
) -> Result<Vec<ItemShift>> {
    let (counts_b, n_b) = before.multi_choice_counts(question)?;
    let (counts_a, n_a) = after.multi_choice_counts(question)?;
    if n_b == 0 || n_a == 0 {
        return Err(Error::Stats(format!(
            "question `{question}` has no answers in one cohort"
        )));
    }
    shifts_from_counts(counts_b, n_b, counts_a, n_a)
}

/// Compares a single-choice question between two cohorts (per-option rows
/// with the same machinery; the denominator is answers, not selections).
///
/// # Errors
/// Same conditions as [`compare_multi_choice`].
pub fn compare_single_choice(
    before: &Cohort,
    after: &Cohort,
    question: &str,
) -> Result<Vec<ItemShift>> {
    let (counts_b, n_b) = before.single_choice_counts(question)?;
    let (counts_a, n_a) = after.single_choice_counts(question)?;
    if n_b == 0 || n_a == 0 {
        return Err(Error::Stats(format!(
            "question `{question}` has no answers in one cohort"
        )));
    }
    shifts_from_counts(counts_b, n_b, counts_a, n_a)
}

/// Builds the per-item shift table straight from `(option, count)` pairs
/// and answered denominators — the shared back half of every comparison in
/// this module.
fn shifts_from_counts(
    counts_b: Vec<(String, u64)>,
    n_b: u64,
    counts_a: Vec<(String, u64)>,
    n_a: u64,
) -> Result<Vec<ItemShift>> {
    let mut rows = Vec::with_capacity(counts_b.len());
    let mut raw_ps = Vec::with_capacity(counts_b.len());
    for ((item, cb), (item_a, ca)) in counts_b.into_iter().zip(counts_a) {
        debug_assert_eq!(item, item_a, "cohorts share one schema");
        let t = two_proportion_z(ca, n_a, cb, n_b)?;
        let p_before = cb as f64 / n_b as f64;
        let p_after = ca as f64 / n_a as f64;
        let h = cohens_h(p_after, p_before)?;
        rows.push(ItemShift {
            item,
            count_before: cb,
            n_before: n_b,
            count_after: ca,
            n_after: n_a,
            p_before,
            p_after,
            ci_before: interval_pair(wilson(cb, n_b, CI_LEVEL)?),
            ci_after: interval_pair(wilson(ca, n_a, CI_LEVEL)?),
            z: t.statistic,
            p_raw: t.p_value,
            p_adj: f64::NAN, // filled below
            cohens_h: h,
            effect: cohen_label(h),
        });
        raw_ps.push(t.p_value);
    }
    let adj = Correction::BenjaminiHochberg.apply(&raw_ps)?;
    for (row, p) in rows.iter_mut().zip(adj) {
        row.p_adj = p;
    }
    Ok(rows)
}

/// A raw item shift next to its composition-adjusted counterpart.
#[derive(Debug, Clone, Serialize)]
pub struct AdjustedShift {
    /// The unadjusted shift row.
    pub raw: ItemShift,
    /// The after-cohort share once post-stratified to the before-cohort's
    /// stratum mix.
    pub p_after_adjusted: f64,
    /// Share of the raw change that survives composition adjustment
    /// (`(p_adj − p_before) / (p_after − p_before)`; NaN when the raw change
    /// is zero).
    pub survives_fraction: f64,
}

/// Robustness check for a multi-choice shift: is the change real, or an
/// artifact of the two samples drawing from different strata (e.g. the 2024
/// sample containing more computationally heavy fields)?
///
/// The *after* cohort is post-stratified to the *before* cohort's observed
/// mix on `stratum_question`, and the weighted share is reported alongside
/// the raw one. A shift that collapses under adjustment was composition,
/// not practice change.
///
/// # Errors
/// Survey errors; weighting errors when a stratum present in `after` has no
/// counterpart share in `before`.
pub fn compare_multi_choice_adjusted(
    before: &Cohort,
    after: &Cohort,
    question: &str,
    stratum_question: &str,
) -> Result<Vec<AdjustedShift>> {
    use std::collections::BTreeMap;

    let raw_rows = compare_multi_choice(before, after, question)?;
    // Targets: the before-cohort's stratum mix (floored so strata that are
    // present in `after` but empty in `before` still get a tiny weight
    // instead of failing).
    let (counts, n) = before.single_choice_counts(stratum_question)?;
    if n == 0 {
        return Err(Error::Stats(format!(
            "stratum question `{stratum_question}` has no answers in the before cohort"
        )));
    }
    let targets: BTreeMap<String, f64> = counts
        .iter()
        .map(|(s, c)| (s.clone(), (*c as f64 / n as f64).max(1e-3)))
        .collect();
    let weights = rcr_survey::weight::Weights::post_stratify(after, stratum_question, &targets)
        .map_err(|e| Error::Survey(e.to_string()))?;

    let mut out = Vec::with_capacity(raw_rows.len());
    for raw in raw_rows {
        let item = raw.item.clone();
        let p_after_adjusted = weights
            .weighted_proportion(after, |r| {
                r.answer(question)
                    .and_then(|a| a.as_choices())
                    .is_some_and(|cs| cs.contains(&item))
            })
            .unwrap_or(raw.p_after);
        // Rescale to the answered-item denominator the raw share uses.
        let answered_share = raw.n_after as f64 / after.len().max(1) as f64;
        let p_after_adjusted = if answered_share > 0.0 {
            (p_after_adjusted / answered_share).min(1.0)
        } else {
            p_after_adjusted
        };
        let raw_delta = raw.p_after - raw.p_before;
        let survives_fraction = if raw_delta.abs() < 1e-12 {
            f64::NAN
        } else {
            (p_after_adjusted - raw.p_before) / raw_delta
        };
        out.push(AdjustedShift {
            raw,
            p_after_adjusted,
            survives_fraction,
        });
    }
    Ok(out)
}

/// Compares coded free-text themes between two cohorts: both corpora are
/// coded with the same [`rcr_survey::coding::CodeBook`], then the per-theme
/// prevalences go through the same shift machinery as any multi-choice
/// battery (experiment E13).
///
/// # Errors
/// Survey errors (wrong question kind) and statistics errors (a cohort with
/// no comments at all).
pub fn compare_themes(
    before: &Cohort,
    after: &Cohort,
    book: &rcr_survey::coding::CodeBook,
    question: &str,
) -> Result<Vec<ItemShift>> {
    let (counts_b, n_b) = book.code_cohort(before, question)?;
    let (counts_a, n_a) = book.code_cohort(after, question)?;
    if n_b == 0 || n_a == 0 {
        return Err(Error::Stats(format!(
            "free-text question `{question}` has no non-empty answers in one cohort"
        )));
    }
    shifts_from_counts(counts_b, n_b, counts_a, n_a)
}

/// Omnibus chi-square over the full option distribution of a single-choice
/// question across two cohorts ("did the primary-language mix change at
/// all?"), plus Cramér's V.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DistributionShift {
    /// Chi-square statistic.
    pub chi2: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// p-value.
    pub p_value: f64,
    /// Cramér's V effect size.
    pub cramers_v: f64,
}

/// Runs the omnibus test for one single-choice question. Options no one in
/// either cohort picked are dropped (zero columns are degenerate).
///
/// # Errors
/// Survey/statistics errors as in [`compare_single_choice`].
pub fn distribution_shift(
    before: &Cohort,
    after: &Cohort,
    question: &str,
) -> Result<DistributionShift> {
    let (counts_b, _) = before.single_choice_counts(question)?;
    let (counts_a, _) = after.single_choice_counts(question)?;
    let mut row_b = Vec::new();
    let mut row_a = Vec::new();
    for ((_, cb), (_, ca)) in counts_b.iter().zip(&counts_a) {
        if cb + ca > 0 {
            row_b.push(*cb as f64);
            row_a.push(*ca as f64);
        }
    }
    let table =
        ContingencyTable::from_rows(&[&row_b, &row_a]).map_err(|e| Error::Stats(e.to_string()))?;
    let t = rcr_stats::tests::chi_square_independence(&table)?;
    Ok(DistributionShift {
        chi2: t.statistic,
        df: t.df.unwrap_or(f64::NAN),
        p_value: t.p_value,
        cramers_v: rcr_stats::effect::cramers_v(&table)?,
    })
}

/// One Likert item's shift between cohorts (experiment E12).
#[derive(Debug, Clone, Serialize)]
pub struct LikertShift {
    /// Item id (e.g. `"pain-debugging"`).
    pub item: String,
    /// Mean score in the before cohort.
    pub mean_before: f64,
    /// Mean score in the after cohort.
    pub mean_after: f64,
    /// Number of answers in the before cohort.
    pub n_before: usize,
    /// Number of answers in the after cohort.
    pub n_after: usize,
    /// Mann–Whitney U statistic.
    pub u: f64,
    /// Raw two-sided p-value.
    pub p_raw: f64,
    /// BH-adjusted p-value across the item battery.
    pub p_adj: f64,
    /// Score distribution (1..=5 counts) in the after cohort, for the
    /// diverging-bar figure.
    pub histogram_after: [u64; 5],
    /// Score distribution in the before cohort.
    pub histogram_before: [u64; 5],
}

/// Compares a battery of Likert items between cohorts with BH correction.
///
/// # Errors
/// Survey errors; statistics errors when an item has no answers.
pub fn compare_likert_battery(
    before: &Cohort,
    after: &Cohort,
    items: &[&str],
) -> Result<Vec<LikertShift>> {
    let mut rows = Vec::with_capacity(items.len());
    let mut raw = Vec::with_capacity(items.len());
    for &item in items {
        let xs = before.likert_scores(item)?;
        let ys = after.likert_scores(item)?;
        let t = mann_whitney_u(&ys, &xs)?;
        let hist = |scores: &[f64]| {
            let mut h = [0u64; 5];
            for &s in scores {
                let idx = (s as usize).clamp(1, 5) - 1;
                h[idx] += 1;
            }
            h
        };
        rows.push(LikertShift {
            item: item.to_owned(),
            mean_before: rcr_stats::descriptive::mean(&xs)?,
            mean_after: rcr_stats::descriptive::mean(&ys)?,
            n_before: xs.len(),
            n_after: ys.len(),
            u: t.statistic,
            p_raw: t.p_value,
            p_adj: f64::NAN,
            histogram_before: hist(&xs),
            histogram_after: hist(&ys),
        });
        raw.push(t.p_value);
    }
    let adj = Correction::BenjaminiHochberg.apply(&raw)?;
    for (row, p) in rows.iter_mut().zip(adj) {
        row.p_adj = p;
    }
    Ok(rows)
}

/// GPU adoption for one field versus the rest of a cohort (experiment E8):
/// Fisher's exact test on the 2×2 `(field, rest) × (gpu, no-gpu)` table.
#[derive(Debug, Clone, Serialize)]
pub struct FieldAdoption {
    /// Field label.
    pub field: String,
    /// GPU users in the field.
    pub gpu_users: u64,
    /// Respondents in the field (answering the parallelism item).
    pub n_field: u64,
    /// GPU share within the field.
    pub share: f64,
    /// Wilson 95% CI of the share.
    pub ci: (f64, f64),
    /// Odds ratio of GPU use in-field vs out-of-field.
    pub odds_ratio: f64,
    /// Fisher exact p-value (raw).
    pub p_raw: f64,
    /// BH-adjusted p-value across fields.
    pub p_adj: f64,
}

/// Computes GPU-by-field adoption rows for one cohort.
///
/// # Errors
/// Survey errors; statistics errors on degenerate tables.
pub fn gpu_by_field(cohort: &Cohort) -> Result<Vec<FieldAdoption>> {
    use rcr_survey::canonical as q;
    use rcr_survey::query::Filter;

    let gpu_filter = Filter::selected(q::Q_PARALLELISM, "gpu");
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    for field in q::FIELDS {
        // Counting passes over the shared cohort — no per-field clone of
        // every response (the old `filter_cohort` path materialized two
        // cohorts per field just to count them).
        let in_field = Filter::choice_is(q::Q_FIELD, field);
        let mut n_in = 0u64;
        let mut gpu_in = 0u64;
        let mut n_out = 0u64;
        let mut gpu_out = 0u64;
        for r in cohort.responses() {
            let inside = in_field.matches(r);
            if r.answered(q::Q_PARALLELISM) {
                if inside {
                    n_in += 1;
                } else {
                    n_out += 1;
                }
            }
            if gpu_filter.matches(r) {
                if inside {
                    gpu_in += 1;
                } else {
                    gpu_out += 1;
                }
            }
        }
        if n_in == 0 || n_out == 0 {
            continue; // field absent from this cohort
        }
        let table = ContingencyTable::two_by_two(
            gpu_in as f64,
            (n_in - gpu_in) as f64,
            gpu_out as f64,
            (n_out - gpu_out) as f64,
        )
        .map_err(|e| Error::Stats(e.to_string()))?;
        let fisher = fisher_exact_2x2(&table)?;
        rows.push(FieldAdoption {
            field: field.to_owned(),
            gpu_users: gpu_in,
            n_field: n_in,
            share: gpu_in as f64 / n_in as f64,
            ci: interval_pair(wilson(gpu_in, n_in, CI_LEVEL)?),
            odds_ratio: fisher.statistic,
            p_raw: fisher.p_value,
            p_adj: f64::NAN,
        });
        raw.push(fisher.p_value);
    }
    let adj = Correction::BenjaminiHochberg.apply(&raw)?;
    for (row, p) in rows.iter_mut().zip(adj) {
        row.p_adj = p;
    }
    Ok(rows)
}

/// Supplementary analysis: does programming experience correlate with
/// practice adoption within one cohort?
#[derive(Debug, Clone, Serialize)]
pub struct ExperiencePractices {
    /// Spearman correlation between years of experience and the number of
    /// practices a respondent reports.
    pub spearman_rho: f64,
    /// Number of respondents with both items answered.
    pub n: usize,
    /// Mean practice count among the least-experienced tertile.
    pub mean_practices_junior: f64,
    /// Mean practice count among the most-experienced tertile.
    pub mean_practices_senior: f64,
    /// Welch t-test p-value for junior vs senior practice counts.
    pub p_junior_vs_senior: f64,
}

/// Computes the experience-vs-practices supplement for one cohort.
///
/// # Errors
/// Survey errors; statistics errors when fewer than ~6 respondents answered
/// both items.
pub fn experience_vs_practices(cohort: &Cohort) -> Result<ExperiencePractices> {
    use rcr_survey::canonical as q;
    use rcr_survey::response::Answer;

    let mut years = Vec::new();
    let mut counts = Vec::new();
    for r in cohort.responses() {
        let y = r.answer(q::Q_YEARS).and_then(Answer::as_number);
        let c = r
            .answer(q::Q_PRACTICES)
            .and_then(Answer::as_choices)
            .map(|cs| cs.len() as f64);
        if let (Some(y), Some(c)) = (y, c) {
            years.push(y);
            counts.push(c);
        }
    }
    let rho = rcr_stats::correlation::spearman(&years, &counts)?;
    // Tertile split by experience.
    let mut order: Vec<usize> = (0..years.len()).collect();
    order.sort_by(|&a, &b| years[a].partial_cmp(&years[b]).expect("finite years"));
    let third = order.len() / 3;
    if third < 3 {
        return Err(Error::Stats(
            "too few respondents for a tertile split".into(),
        ));
    }
    let junior: Vec<f64> = order[..third].iter().map(|&i| counts[i]).collect();
    let senior: Vec<f64> = order[order.len() - third..]
        .iter()
        .map(|&i| counts[i])
        .collect();
    let t = rcr_stats::tests::welch_t(&junior, &senior)?;
    Ok(ExperiencePractices {
        spearman_rho: rho,
        n: years.len(),
        mean_practices_junior: rcr_stats::descriptive::mean(&junior)?,
        mean_practices_senior: rcr_stats::descriptive::mean(&senior)?,
        p_junior_vs_senior: t.p_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_survey::canonical as q;
    use rcr_synth::calibration::Wave;
    use rcr_synth::generator::Generator;

    fn cohorts() -> (Cohort, Cohort) {
        let g = Generator::new(0xC0FFEE);
        (g.cohort(Wave::Y2011, 114), g.cohort(Wave::Y2024, 720))
    }

    #[test]
    fn language_shift_detects_python_rise() {
        let (before, after) = cohorts();
        let shifts = compare_multi_choice(&before, &after, q::Q_LANGS).unwrap();
        assert_eq!(shifts.len(), q::LANGUAGES.len());
        let py = shifts
            .iter()
            .find(|s| s.item == "python")
            .expect("python row");
        assert!(
            py.p_after > py.p_before + 0.2,
            "{:?}",
            (py.p_before, py.p_after)
        );
        assert!(py.significant(0.01), "p_adj = {}", py.p_adj);
        assert!(py.z > 0.0);
        assert!(py.cohens_h > 0.5);
        assert_ne!(py.effect, "negligible");
        // CIs bracket the point estimates.
        assert!(py.ci_after.0 <= py.p_after && py.p_after <= py.ci_after.1);
        let fortran = shifts
            .iter()
            .find(|s| s.item == "fortran")
            .expect("fortran row");
        assert!(fortran.z < 0.0, "fortran should fall");
    }

    #[test]
    fn p_adj_dominates_p_raw_everywhere() {
        let (before, after) = cohorts();
        for rows in [
            compare_multi_choice(&before, &after, q::Q_LANGS).unwrap(),
            compare_multi_choice(&before, &after, q::Q_PRACTICES).unwrap(),
            compare_multi_choice(&before, &after, q::Q_PARALLELISM).unwrap(),
        ] {
            for r in rows {
                assert!(
                    r.p_adj >= r.p_raw - 1e-12,
                    "{}: {} < {}",
                    r.item,
                    r.p_adj,
                    r.p_raw
                );
                assert!((0.0..=1.0).contains(&r.p_adj));
            }
        }
    }

    #[test]
    fn single_choice_comparison_and_omnibus() {
        let (before, after) = cohorts();
        let rows = compare_single_choice(&before, &after, q::Q_PRIMARY_LANG).unwrap();
        assert_eq!(rows.len(), q::LANGUAGES.len());
        // Shares within one cohort sum to 1 across options.
        let total_after: f64 = rows.iter().map(|r| r.p_after).sum();
        assert!((total_after - 1.0).abs() < 1e-9);
        let omni = distribution_shift(&before, &after, q::Q_PRIMARY_LANG).unwrap();
        assert!(
            omni.p_value < 0.001,
            "mix change must be detected: {omni:?}"
        );
        assert!(omni.cramers_v > 0.1);
        assert!(omni.chi2 > 0.0 && omni.df >= 1.0);
    }

    #[test]
    fn likert_battery_detects_install_pain_drop() {
        let (before, after) = cohorts();
        let rows = compare_likert_battery(&before, &after, &q::PAIN_ITEMS).unwrap();
        assert_eq!(rows.len(), 6);
        let install = rows
            .iter()
            .find(|r| r.item == "pain-software-install")
            .expect("install row");
        assert!(install.mean_after < install.mean_before - 0.3);
        assert!(install.p_adj < 0.05);
        let data = rows
            .iter()
            .find(|r| r.item == "pain-data-management")
            .expect("data row");
        assert!(data.mean_after > data.mean_before);
        for r in &rows {
            assert_eq!(r.histogram_after.iter().sum::<u64>() as usize, r.n_after);
            assert_eq!(r.histogram_before.iter().sum::<u64>() as usize, r.n_before);
        }
    }

    #[test]
    fn gpu_by_field_orders_sensibly() {
        let (_, after) = cohorts();
        let rows = gpu_by_field(&after).unwrap();
        assert_eq!(rows.len(), q::FIELDS.len());
        let share_of = |f: &str| rows.iter().find(|r| r.field == f).expect("field").share;
        // Calibration says neuroscience >> social science.
        assert!(share_of("neuroscience") > share_of("social-science") + 0.1);
        for r in &rows {
            assert!(r.ci.0 <= r.share && r.share <= r.ci.1);
            assert!((0.0..=1.0).contains(&r.p_adj));
            assert!(r.n_field > 0);
        }
    }

    #[test]
    fn composition_adjustment_preserves_real_shifts() {
        let (before, after) = cohorts();
        let rows = compare_multi_choice_adjusted(&before, &after, q::Q_LANGS, q::Q_FIELD).unwrap();
        assert_eq!(rows.len(), q::LANGUAGES.len());
        let py = rows
            .iter()
            .find(|r| r.raw.item == "python")
            .expect("python row");
        // Python's rise is practice change, not field mix: the adjusted 2024
        // share stays far above the 2011 share.
        assert!(
            py.p_after_adjusted > py.raw.p_before + 0.25,
            "adjusted {} vs before {}",
            py.p_after_adjusted,
            py.raw.p_before
        );
        assert!(
            py.survives_fraction > 0.6,
            "most of the shift should survive adjustment: {}",
            py.survives_fraction
        );
        for r in &rows {
            assert!(
                (0.0..=1.0).contains(&r.p_after_adjusted),
                "{}: {}",
                r.raw.item,
                r.p_after_adjusted
            );
        }
    }

    #[test]
    fn theme_shift_detects_obstacle_migration() {
        let (before, after) = cohorts();
        let book = rcr_survey::coding::canonical_code_book();
        let rows = compare_themes(&before, &after, &book, q::Q_COMMENTS).unwrap();
        assert_eq!(rows.len(), book.codes().len());
        let pick = |tag: &str| rows.iter().find(|r| r.item == tag).expect("theme row");
        // Install pain recedes; data pain grows (matching the comment pools).
        assert!(pick("environments").z < 0.0, "{:?}", pick("environments"));
        assert!(pick("data-management").z > 0.0);
        assert!(pick("data-management").significant(0.05));
        for r in &rows {
            assert!(r.p_adj >= r.p_raw - 1e-12);
        }
    }

    #[test]
    fn experience_supplement_runs_on_both_cohorts() {
        let (before, after) = cohorts();
        for c in [&before, &after] {
            let s = experience_vs_practices(c).unwrap();
            assert!(s.n > 50, "n = {}", s.n);
            assert!((-1.0..=1.0).contains(&s.spearman_rho));
            assert!(s.mean_practices_junior >= 0.0 && s.mean_practices_senior >= 0.0);
            assert!((0.0..=1.0).contains(&s.p_junior_vs_senior));
        }
        // The calibration gives grad students/postdocs a practice boost and
        // faculty a penalty, while experience grows with stage — so the
        // correlation should be weak-to-negative, not strongly positive.
        let s = experience_vs_practices(&after).unwrap();
        assert!(s.spearman_rho < 0.3, "rho = {}", s.spearman_rho);
    }

    #[test]
    fn unknown_question_is_an_error() {
        let (before, after) = cohorts();
        assert!(compare_multi_choice(&before, &after, "ghost").is_err());
        assert!(compare_single_choice(&before, &after, q::Q_LANGS).is_err());
        assert!(compare_likert_battery(&before, &after, &["nope"]).is_err());
    }
}
