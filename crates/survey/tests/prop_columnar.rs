//! Property tests for the columnar engine: on *arbitrary* cohorts —
//! random schemas, random skip patterns, empty multi-choice selections,
//! free text — every columnar tier must agree with the row engine, and a
//! cohort must survive the row → columnar → row round trip bit for bit
//! (checked through the canonical JSON and CSV serializations).

use proptest::prelude::*;

use rcr_survey::cohort::Cohort;
use rcr_survey::columnar::{ColumnarCohort, Engine};
use rcr_survey::io;
use rcr_survey::query::{count_filtered, Filter};
use rcr_survey::response::{Answer, Response};
use rcr_survey::schema::{Question, QuestionKind, Schema};

/// Per-row raw draw: which questions are answered and with what.
type RowSpec = (
    Option<usize>,     // sc: single-choice option index
    Option<usize>,     // sc2: second single-choice option index
    Option<Vec<bool>>, // mc: multi-choice selection mask (may be all-false)
    Option<u8>,        // lk: likert point
    Option<f64>,       // num: numeric entry
    Option<String>,    // txt: free text
);

fn option_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("o{i}")).collect()
}

fn build_cohort(n_sc: usize, n_sc2: usize, n_mc: usize, points: u8, rows: Vec<RowSpec>) -> Cohort {
    let schema = Schema::builder("prop")
        .question(Question::new(
            "sc",
            "?",
            QuestionKind::single_choice(option_names(n_sc)),
        ))
        .question(Question::new(
            "sc2",
            "?",
            QuestionKind::single_choice(option_names(n_sc2)),
        ))
        .question(Question::new(
            "mc",
            "?",
            QuestionKind::multi_choice(option_names(n_mc)),
        ))
        .question(Question::new("lk", "?", QuestionKind::likert(points)))
        .question(Question::new("num", "?", QuestionKind::numeric(None, None)))
        .question(Question::new("txt", "?", QuestionKind::FreeText))
        .build()
        .expect("schema builds");
    let mut cohort = Cohort::new("prop", 2024, schema);
    for (i, (sc, sc2, mc, lk, num, txt)) in rows.into_iter().enumerate() {
        let mut r = Response::new(format!("r{i:04}"));
        if let Some(k) = sc {
            r.set("sc", Answer::choice(format!("o{}", k % n_sc)));
        }
        if let Some(k) = sc2 {
            r.set("sc2", Answer::choice(format!("o{}", k % n_sc2)));
        }
        if let Some(mask) = mc {
            // Selections in option order (the canonical order every layer
            // emits); an all-false mask is a legitimate empty selection.
            let picked: Vec<String> = mask
                .iter()
                .enumerate()
                .filter(|(_, on)| **on)
                .map(|(j, _)| format!("o{j}"))
                .collect();
            r.set("mc", Answer::choices(picked));
        }
        if let Some(p) = lk {
            r.set("lk", Answer::Scale(1 + p % points));
        }
        if let Some(v) = num {
            r.set("num", Answer::Number(v));
        }
        if let Some(t) = txt {
            r.set("txt", Answer::Text(t));
        }
        cohort.push(r).expect("row validates");
    }
    cohort
}

/// Small deterministic PRNG for expanding one sampled `u64` into a whole
/// cohort (the vendored proptest has no flat-map/option combinators, so
/// the seed is the sampled value and everything else derives from it).
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn cohort_from_seed(seed: u64) -> Cohort {
    let mut s = seed | 1;
    let n_sc = 2 + (next(&mut s) % 7) as usize; // 2..=8 options
    let n_sc2 = 2 + (next(&mut s) % 4) as usize; // 2..=5 options
    let n_mc = 2 + (next(&mut s) % 9) as usize; // 2..=10 options
    let points = 2 + (next(&mut s) % 6) as u8; // 2..=7 likert points
    let n_rows = (next(&mut s) % 60) as usize;
    let rows = (0..n_rows)
        .map(|_| {
            let sc = (!next(&mut s).is_multiple_of(4)).then(|| next(&mut s) as usize);
            let sc2 = (!next(&mut s).is_multiple_of(4)).then(|| next(&mut s) as usize);
            let mc = (!next(&mut s).is_multiple_of(4)).then(|| {
                let mask = next(&mut s);
                (0..n_mc).map(|j| mask >> j & 1 == 1).collect::<Vec<bool>>()
            });
            let lk = (!next(&mut s).is_multiple_of(4)).then(|| next(&mut s) as u8);
            let num = (!next(&mut s).is_multiple_of(4))
                .then(|| (next(&mut s) % 2_000_001) as f64 / 1000.0 - 1000.0);
            let txt = (!next(&mut s).is_multiple_of(4)).then(|| {
                let len = next(&mut s) % 7;
                (0..len)
                    .map(|_| char::from(b'a' + (next(&mut s) % 26) as u8))
                    .collect::<String>()
            });
            (sc, sc2, mc, lk, num, txt)
        })
        .collect();
    build_cohort(n_sc, n_sc2, n_mc, points, rows)
}

fn cohort_strategy() -> impl Strategy<Value = Cohort> {
    any::<u64>().prop_map(cohort_from_seed)
}

/// Row-side reference for the likert sum: fold in row order, exactly the
/// order the serial columnar tier uses.
fn row_likert_sum(cohort: &Cohort) -> (f64, u64) {
    let scores = cohort.likert_scores("lk").expect("lk exists");
    // Explicit +0.0 accumulator: `Iterator::sum` folds from -0.0, which
    // differs bitwise on empty input.
    (scores.iter().fold(0.0, |a, v| a + v), scores.len() as u64)
}

fn row_numeric_sum(cohort: &Cohort) -> (f64, u64) {
    let values = cohort.numeric_values("num").expect("num exists");
    (values.iter().fold(0.0, |a, v| a + v), values.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_every_tier_matches_row_counts(cohort in cohort_strategy()) {
        let cc = ColumnarCohort::from_cohort(&cohort).expect("columnarizes");
        prop_assert_eq!(cc.n_rows(), cohort.len());

        let row_sc = cohort.single_choice_counts("sc").unwrap();
        let row_mc = cohort.multi_choice_counts("mc").unwrap();
        let row_sel = cohort.selected_count("mc", "o0").unwrap();
        let (row_lk_sum, row_lk_n) = row_likert_sum(&cohort);
        let (row_num_sum, row_num_n) = row_numeric_sum(&cohort);

        for engine in [Engine::serial(), Engine::parallel(3)] {
            let sc = engine.single_choice_counts(&cc, "sc", None).unwrap();
            prop_assert_eq!(&sc, &row_sc, "tier {}", engine.tier.name());
            let mc = engine.multi_choice_counts(&cc, "mc", None).unwrap();
            prop_assert_eq!(&mc, &row_mc, "tier {}", engine.tier.name());
            let sel = engine.selected_count(&cc, "mc", "o0", None).unwrap();
            prop_assert_eq!(sel, row_sel, "tier {}", engine.tier.name());

            // Likert points are small integers: dyadic, so every tier's
            // reassociated sum is bitwise identical to the row fold.
            let (lk_sum, lk_n) = engine.likert_sum_count(&cc, "lk", None).unwrap();
            prop_assert_eq!(lk_n, row_lk_n);
            prop_assert_eq!(lk_sum.to_bits(), row_lk_sum.to_bits(),
                "tier {}: {lk_sum} vs {row_lk_sum}", engine.tier.name());

            // Arbitrary f64 sums are only reassociation-exact on the
            // serial tier; the parallel tier gets a relative tolerance.
            let (num_sum, num_n) = engine.numeric_sum_count(&cc, "num", None).unwrap();
            prop_assert_eq!(num_n, row_num_n);
            if engine.tier.name() == "columnar" {
                prop_assert_eq!(num_sum.to_bits(), row_num_sum.to_bits());
            } else {
                let tol = 1e-9 * (1.0 + row_num_sum.abs());
                prop_assert!((num_sum - row_num_sum).abs() <= tol);
            }
        }

        // Crosstab against a hand-rolled row-side tally.
        let ct = Engine::serial().crosstab(&cc, "sc", "sc2", None).unwrap();
        for (i, ro) in ct.row_options.iter().enumerate() {
            for (j, co) in ct.col_options.iter().enumerate() {
                let want = cohort
                    .responses()
                    .iter()
                    .filter(|r| {
                        r.answer("sc").and_then(Answer::as_choice) == Some(ro.as_str())
                            && r.answer("sc2").and_then(Answer::as_choice) == Some(co.as_str())
                    })
                    .count() as u64;
                prop_assert_eq!(
                    ct.counts[i * ct.col_options.len() + j],
                    want,
                    "cell ({ro}, {co})"
                );
            }
        }
    }

    #[test]
    fn prop_selection_vectors_match_row_filters(cohort in cohort_strategy()) {
        let cc = ColumnarCohort::from_cohort(&cohort).expect("columnarizes");
        let filters = [
            Filter::choice_is("sc", "o1"),
            Filter::selected("mc", "o1"),
            Filter::scale_at_least("lk", 3),
            Filter::number_in_range("num", -250.0, 250.0),
            Filter::answered("txt"),
            Filter::choice_is("sc", "o0").and(Filter::selected("mc", "o0")),
            Filter::scale_at_least("lk", 2).or(Filter::answered("num")),
            Filter::choice_is("sc", "o1").not(),
            Filter::selected("mc", "nonexistent-option"),
        ];
        for filter in filters {
            let want = count_filtered(&cohort, &filter) as u64;
            let sel = cc.select(&filter);
            prop_assert_eq!(sel.count_ones(), want, "filter {}", filter.describe());
            // The chunk grid is fixed, so the parallel compile of the same
            // filter produces the identical selection vector.
            let par = cc.select_with(&filter, 3);
            prop_assert_eq!(par.words(), sel.words(), "filter {}", filter.describe());
        }
    }

    #[test]
    fn prop_json_and_csv_round_trip_through_columns(cohort in cohort_strategy()) {
        let cc = ColumnarCohort::from_cohort(&cohort).expect("columnarizes");
        let back = cc.to_cohort();
        prop_assert_eq!(
            io::cohort_to_json(&back).unwrap(),
            io::cohort_to_json(&cohort).unwrap()
        );
        prop_assert_eq!(io::cohort_to_csv(&back), io::cohort_to_csv(&cohort));

        // And the serialized form re-columnarizes to identical counts.
        let reparsed = io::cohort_from_json(&io::cohort_to_json(&cohort).unwrap()).unwrap();
        let cc2 = ColumnarCohort::from_cohort(&reparsed).expect("columnarizes");
        prop_assert_eq!(
            cc2.multi_choice_counts("mc").unwrap(),
            cc.multi_choice_counts("mc").unwrap()
        );
        prop_assert_eq!(
            cc2.single_choice_counts("sc").unwrap(),
            cc.single_choice_counts("sc").unwrap()
        );
    }
}
