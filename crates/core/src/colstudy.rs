//! Experiment E21 (Figure 11): the columnar analytics scaling study.
//!
//! One synthetic 2024-wave population per size (10⁴ → 10⁷ respondents,
//! generated straight into columns by the streaming generator) is queried
//! by a fixed four-query analytics suite under three execution tiers:
//!
//! * `row` — the original row engine: per-respondent `BTreeMap` answer
//!   lookups and string compares, exactly the loops behind
//!   [`rcr_survey::cohort::Cohort`]'s tabulation methods;
//! * `columnar` — the serial columnar engine: dictionary codes, validity
//!   bitmaps, and selection vectors ([`rcr_survey::columnar::Engine`]);
//! * `columnar+parallel` — row chunks fanned out over the work-stealing
//!   pool with deterministic partial merging.
//!
//! The suite: Q1 counts a conjunctive filter (neuroscience ∧ GPU), Q2
//! tabulates the multi-choice language battery, Q3 cross-tabulates field ×
//! career stage, and Q4 sums the first pain-point Likert item. Before any
//! tier is timed ([`crate::harness`]), its full warm-up suite output is
//! verified against the row tier's — counts exactly, the Likert sum
//! bitwise (the survey's scores are small integers, so every
//! reassociation is exact) — and at the smallest size the row tier itself
//! is verified against the actual [`Cohort`] API. A mismatch aborts with
//! [`Error::VerificationFailed`].
//!
//! At populations too large to hold as `Response` structs, the row tier
//! streams: each chunk of rows is materialized from the columns (untimed),
//! then evaluated (timed), so the row number is pure query-evaluation
//! cost with no materialization or allocation-of-the-population overhead
//! — a deliberately generous baseline.
//!
//! [`Cohort`]: rcr_survey::cohort::Cohort

use serde::Serialize;

use rcr_survey::canonical as q;
use rcr_survey::columnar::{ColumnarCohort, Engine, Tier};
use rcr_survey::query::{count_filtered, Filter};
use rcr_survey::response::{Answer, Response};
use rcr_synth::calibration::Wave;
use rcr_synth::generator::Generator;

use crate::harness::{measure, verify};
use crate::perfgap::GapConfig;
use crate::{Error, Result};

/// Tier labels in sweep order; `row` must come first (it is the speedup
/// baseline and the verification reference).
pub const TIERS: [&str; 3] = ["row", "columnar", "columnar+parallel"];

/// Column passes per suite evaluation (Q1–Q4), used to convert median
/// seconds into rows scanned per second.
pub const SUITE_PASSES: usize = 4;

/// Rows materialized per chunk when the row tier streams a population too
/// large to hold as `Response` structs all at once.
const ROW_CHUNK: usize = 131_072;

/// One (population size, tier) cell of the E21 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ColPoint {
    /// Population size (respondents).
    pub rows: usize,
    /// Tier name (see [`TIERS`]).
    pub tier: String,
    /// Median seconds per full suite evaluation.
    pub median_s: f64,
    /// Rows scanned per second: `SUITE_PASSES · rows / median_s`.
    pub rows_per_s: f64,
    /// Speedup of this tier over the `row` tier at the same size.
    pub speedup_vs_row: f64,
    /// Order-independent digest of the full suite output (all counts plus
    /// the Likert sum's bits); equal across tiers by construction.
    pub checksum: u64,
    /// Whether the tier's suite output matched the row reference (always
    /// `true` in returned rows; a mismatch aborts the run instead).
    pub verified: bool,
}

/// The full output of one suite evaluation — everything the four queries
/// produce, merged across chunks in ascending row order.
#[derive(Debug, Clone, PartialEq)]
struct SuiteOut {
    /// Q1: respondents matching the conjunctive filter.
    q1_count: u64,
    /// Q2: per-language selection counts, schema option order.
    q2_counts: Vec<u64>,
    /// Q2: respondents answering the language battery.
    q2_answered: u64,
    /// Q3: field × stage joint counts, row-major in schema option order.
    q3_grid: Vec<u64>,
    /// Q3: respondents answering both questions.
    q3_total: u64,
    /// Q4: sum of the pain-item scores, folded in row order.
    q4_sum: f64,
    /// Q4: respondents answering the pain item.
    q4_count: u64,
}

impl SuiteOut {
    fn zero(n_langs: usize, n_fields: usize, n_stages: usize) -> Self {
        SuiteOut {
            q1_count: 0,
            q2_counts: vec![0; n_langs],
            q2_answered: 0,
            q3_grid: vec![0; n_fields * n_stages],
            q3_total: 0,
            q4_sum: 0.0,
            q4_count: 0,
        }
    }

    /// Merges a later chunk's partial into `self` (chunks ascend, so the
    /// `q4_sum` fold order equals the full row-order fold).
    fn absorb(&mut self, p: &SuiteOut) {
        self.q1_count += p.q1_count;
        for (a, b) in self.q2_counts.iter_mut().zip(&p.q2_counts) {
            *a += b;
        }
        self.q2_answered += p.q2_answered;
        for (a, b) in self.q3_grid.iter_mut().zip(&p.q3_grid) {
            *a += b;
        }
        self.q3_total += p.q3_total;
        self.q4_sum += p.q4_sum;
        self.q4_count += p.q4_count;
    }

    fn checksum(&self) -> u64 {
        let mut h = 0xE21u64;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(27);
        };
        mix(self.q1_count);
        for &c in &self.q2_counts {
            mix(c);
        }
        mix(self.q2_answered);
        for &c in &self.q3_grid {
            mix(c);
        }
        mix(self.q3_total);
        mix(self.q4_sum.to_bits());
        mix(self.q4_count);
        h
    }
}

/// Precomputed schema context shared by both engines' suite bodies.
struct SuiteCtx {
    /// Q1 predicate: neuroscience ∧ GPU.
    filter: Filter,
    langs: Vec<String>,
    fields: Vec<String>,
    stages: Vec<String>,
    pain: &'static str,
}

impl SuiteCtx {
    fn new(cohort: &ColumnarCohort) -> Result<Self> {
        let opts = |id: &str| -> Result<Vec<String>> {
            Ok(cohort
                .schema()
                .question(id)
                .ok_or_else(|| Error::Survey(format!("E21 population lacks `{id}`")))?
                .kind
                .options()
                .to_vec())
        };
        Ok(SuiteCtx {
            filter: Filter::choice_is(q::Q_FIELD, "neuroscience")
                .and(Filter::selected(q::Q_PARALLELISM, "gpu")),
            langs: opts(q::Q_LANGS)?,
            fields: opts(q::Q_FIELD)?,
            stages: opts(q::Q_STAGE)?,
            pain: q::PAIN_ITEMS[0],
        })
    }
}

/// Runs the suite over one chunk of materialized responses with the row
/// engine's own idioms: `Filter::matches`, `BTreeMap` answer lookups, and
/// linear option `find`s — the loops inside `Cohort::multi_choice_counts`
/// and friends, on a slice.
fn row_suite(ctx: &SuiteCtx, rows: &[Response]) -> SuiteOut {
    let mut out = SuiteOut::zero(ctx.langs.len(), ctx.fields.len(), ctx.stages.len());
    for r in rows {
        if ctx.filter.matches(r) {
            out.q1_count += 1;
        }
        if let Some(Answer::Choices(cs)) = r.answer(q::Q_LANGS) {
            out.q2_answered += 1;
            for c in cs {
                if let Some(i) = ctx.langs.iter().position(|o| o == c) {
                    out.q2_counts[i] += 1;
                }
            }
        }
        let f = r.answer(q::Q_FIELD).and_then(Answer::as_choice);
        let s = r.answer(q::Q_STAGE).and_then(Answer::as_choice);
        if let (Some(f), Some(s)) = (f, s) {
            if let (Some(fi), Some(si)) = (
                ctx.fields.iter().position(|o| o == f),
                ctx.stages.iter().position(|o| o == s),
            ) {
                out.q3_grid[fi * ctx.stages.len() + si] += 1;
                out.q3_total += 1;
            }
        }
        if let Some(v) = r.answer(ctx.pain).and_then(Answer::as_scale) {
            out.q4_sum += f64::from(v);
            out.q4_count += 1;
        }
    }
    out
}

/// Runs the suite with one columnar [`Engine`].
fn columnar_suite(engine: &Engine, cohort: &ColumnarCohort, ctx: &SuiteCtx) -> Result<SuiteOut> {
    let sel = if engine.tier == Tier::Serial {
        cohort.select(&ctx.filter)
    } else {
        cohort.select_with(&ctx.filter, engine.threads)
    };
    let q1_count = engine.count(cohort, &sel);
    let (q2, q2_answered) = engine.multi_choice_counts(cohort, q::Q_LANGS, None)?;
    let ct = engine.crosstab(cohort, q::Q_FIELD, q::Q_STAGE, None)?;
    let (q4_sum, q4_count) = engine.likert_sum_count(cohort, ctx.pain, None)?;
    Ok(SuiteOut {
        q1_count,
        q2_counts: q2.into_iter().map(|(_, c)| c).collect(),
        q2_answered,
        q3_grid: ct.counts,
        q3_total: ct.total,
        q4_sum,
        q4_count,
    })
}

/// Verifies the row tier's streamed aggregate against the actual
/// [`rcr_survey::cohort::Cohort`] API on a fully materialized cohort —
/// the E21 correctness anchor, run at the smallest population size.
fn verify_against_cohort_api(
    cohort: &ColumnarCohort,
    ctx: &SuiteCtx,
    got: &SuiteOut,
) -> Result<()> {
    let mismatch = |what: &str| {
        Error::VerificationFailed(format!("E21: row tier diverges from Cohort::{what}"))
    };
    let c = cohort.to_cohort();
    if count_filtered(&c, &ctx.filter) as u64 != got.q1_count {
        return Err(mismatch("count via Filter::matches"));
    }
    let (counts, answered) = c.multi_choice_counts(q::Q_LANGS)?;
    let api_counts: Vec<u64> = counts.into_iter().map(|(_, n)| n).collect();
    if api_counts != got.q2_counts || answered != got.q2_answered {
        return Err(mismatch("multi_choice_counts"));
    }
    let scores = c.likert_scores(ctx.pain)?;
    let api_sum: f64 = scores.iter().sum();
    if api_sum.to_bits() != got.q4_sum.to_bits() || scores.len() as u64 != got.q4_count {
        return Err(mismatch("likert_scores"));
    }
    Ok(())
}

/// Population sizes swept, smallest first.
pub fn sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000, 10_000]
    } else {
        vec![10_000, 100_000, 1_000_000, 10_000_000]
    }
}

/// Repetitions per (size, tier) cell; large populations run once (their
/// per-pass cost already dwarfs timer noise).
fn reps_for(n: usize, quick: bool) -> usize {
    if quick {
        2
    } else if n <= 100_000 {
        7
    } else if n <= 1_000_000 {
        3
    } else {
        1
    }
}

/// Runs the full E21 sweep: `sizes(quick) × TIERS` verified cells.
///
/// # Errors
/// [`Error::VerificationFailed`] when any tier's suite output diverges
/// from the row reference; survey errors only if the canonical schema is
/// malformed.
pub fn run(seed: u64, config: &GapConfig) -> Result<Vec<ColPoint>> {
    let threads = config.threads.max(1);
    let g = Generator::new(seed);
    let mut out = Vec::new();
    for (si, &n) in sizes(config.quick).iter().enumerate() {
        let cohort = g.columnar_cohort(Wave::Y2024, n);
        let ctx = SuiteCtx::new(&cohort)?;
        let reps = reps_for(n, config.quick);

        // Row tier: materialize each chunk from the columns (untimed) and
        // time the suite on it; the row time is the sum of the chunks'
        // medians, and the warm-up partials merge in row order into the
        // reference every other tier must reproduce. The smallest size is
        // one chunk, so its Cohort API check runs before that chunk is timed.
        let mut row_agg = SuiteOut::zero(ctx.langs.len(), ctx.fields.len(), ctx.stages.len());
        let mut row_median = 0.0;
        let mut start = 0;
        while start < n {
            let end = (start + ROW_CHUNK).min(n);
            let chunk = cohort.rows_to_responses(start, end);
            row_median += measure(
                reps,
                || row_suite(&ctx, &chunk),
                |part| {
                    row_agg.absorb(&part);
                    if si == 0 && end == n {
                        verify_against_cohort_api(&cohort, &ctx, &row_agg)?;
                    }
                    Ok(())
                },
            )?
            .median_s;
            start = end;
        }
        let row_checksum = row_agg.checksum();
        out.push(ColPoint {
            rows: n,
            tier: "row".into(),
            median_s: row_median,
            rows_per_s: (SUITE_PASSES * n) as f64 / row_median,
            speedup_vs_row: 1.0,
            checksum: row_checksum,
            verified: true,
        });

        for engine in [Engine::serial(), Engine::parallel(threads)] {
            let m = measure(
                reps,
                || columnar_suite(&engine, &cohort, &ctx),
                |agg| {
                    let agg = agg?;
                    verify(agg.checksum() == row_checksum && agg == row_agg, || {
                        format!(
                            "E21 n={n}: tier `{}` disagrees with the row reference",
                            engine.tier.name()
                        )
                    })
                },
            )?
            .median_s;
            out.push(ColPoint {
                rows: n,
                tier: engine.tier.name().into(),
                median_s: m,
                rows_per_s: (SUITE_PASSES * n) as f64 / m,
                speedup_vs_row: row_median / m,
                checksum: row_checksum,
                verified: true,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_every_cell() {
        let rows = run(0xE21, &GapConfig::quick()).expect("quick run verifies");
        let sizes = sizes(true);
        assert_eq!(rows.len(), sizes.len() * TIERS.len());
        for (i, &n) in sizes.iter().enumerate() {
            let cell = &rows[i * TIERS.len()..(i + 1) * TIERS.len()];
            let tiers: Vec<_> = cell.iter().map(|p| p.tier.as_str()).collect();
            assert_eq!(tiers, TIERS.to_vec(), "n={n}");
            let reference = cell[0].checksum;
            for p in cell {
                assert_eq!(p.rows, n);
                assert_eq!(p.checksum, reference, "{}: checksum diverges", p.tier);
                assert!(p.verified);
                assert!(p.median_s > 0.0 && p.rows_per_s > 0.0);
                assert!(p.speedup_vs_row > 0.0);
            }
            assert!((cell[0].speedup_vs_row - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn checksums_are_deterministic_across_runs() {
        let a = run(7, &GapConfig::quick()).unwrap();
        let b = run(7, &GapConfig::quick()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.rows, x.tier.as_str()), (y.rows, y.tier.as_str()));
            assert_eq!(x.checksum, y.checksum);
        }
    }
}
