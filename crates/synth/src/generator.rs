//! The respondent generator: personas, conditional answers, non-response.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rcr_survey::canonical as q;
use rcr_survey::cohort::Cohort;
use rcr_survey::columnar::{ColumnarBuilder, ColumnarCohort};
use rcr_survey::response::{Answer, Response};

use crate::calibration::{Calibration, Wave, NONRESPONSE_RATE};
use crate::sampler;

/// Receiver for one respondent's generated answers. The generator core
/// ([`generate_one_into`]) is sink-generic so the same RNG draw sequence
/// can fill either a `Response` (row path) or a [`ColumnarBuilder`]
/// column set (streaming path) — keeping the two byte-identical by
/// construction.
trait RowSink {
    fn choice(&mut self, question: &'static str, option: &str);
    fn choices(&mut self, question: &'static str, options: &[&str]);
    fn scale(&mut self, question: &'static str, value: u8);
    fn number(&mut self, question: &'static str, value: f64);
    fn text(&mut self, question: &'static str, text: String);
}

/// Row sink: collects answers into a `Response`.
struct ResponseSink {
    r: Response,
}

impl RowSink for ResponseSink {
    fn choice(&mut self, question: &'static str, option: &str) {
        self.r.set(question, Answer::choice(option));
    }
    fn choices(&mut self, question: &'static str, options: &[&str]) {
        self.r
            .set(question, Answer::choices(options.iter().copied()));
    }
    fn scale(&mut self, question: &'static str, value: u8) {
        self.r.set(question, Answer::Scale(value));
    }
    fn number(&mut self, question: &'static str, value: f64) {
        self.r.set(question, Answer::Number(value));
    }
    fn text(&mut self, question: &'static str, text: String) {
        self.r.set(question, Answer::Text(text));
    }
}

/// Columnar sink: appends answers to the current builder row. Generated
/// answers are valid against the canonical questionnaire by construction,
/// so builder errors are unreachable.
struct ColumnarSink<'a> {
    b: &'a mut ColumnarBuilder,
}

impl ColumnarSink<'_> {
    fn col(&self, question: &str) -> usize {
        self.b
            .column_of(question)
            .expect("canonical question has a column")
    }
}

impl RowSink for ColumnarSink<'_> {
    fn choice(&mut self, question: &'static str, option: &str) {
        let k = self.col(question);
        self.b
            .set_choice(k, option)
            .expect("generated answer valid");
    }
    fn choices(&mut self, question: &'static str, options: &[&str]) {
        let k = self.col(question);
        self.b
            .set_choices(k, options.iter().copied())
            .expect("generated answer valid");
    }
    fn scale(&mut self, question: &'static str, value: u8) {
        let k = self.col(question);
        self.b.set_scale(k, value).expect("generated answer valid");
    }
    fn number(&mut self, question: &'static str, value: f64) {
        let k = self.col(question);
        self.b.set_number(k, value).expect("generated answer valid");
    }
    fn text(&mut self, question: &'static str, text: String) {
        let k = self.col(question);
        self.b.set_text(k, &text).expect("generated answer valid");
    }
}

/// Seeded generator of synthetic survey cohorts.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
}

impl Generator {
    /// Creates a generator with the given master seed. The same seed always
    /// produces the same cohorts.
    pub fn new(seed: u64) -> Self {
        Generator { seed }
    }

    /// Generates a cohort of `n` respondents for `wave`.
    ///
    /// # Panics
    /// Never in practice: every generated answer is valid against the
    /// canonical questionnaire by construction (guarded by a debug assert).
    pub fn cohort(&self, wave: Wave, n: usize) -> Cohort {
        // Distinct streams per (seed, wave) so the 2011 and 2024 cohorts are
        // independent draws.
        let stream = self.seed ^ (u64::from(wave.year()) << 32);
        let mut rng = StdRng::seed_from_u64(stream);
        let cal = Calibration::for_wave(wave);
        let mut cohort = Cohort::new(wave.name(), wave.year(), q::questionnaire());
        for i in 0..n {
            let r = generate_one(&mut rng, &cal, &format!("{}-{:04}", wave.name(), i));
            cohort
                .push(r)
                .expect("generated responses are valid against the canonical questionnaire");
        }
        cohort
    }

    /// Generates `n` respondents for `wave` directly into columnar form —
    /// the streaming path for population-scale runs. No `Response` structs
    /// or respondent-id strings are materialized (and none of
    /// `Cohort::push`'s per-row duplicate scanning happens), so building a
    /// 10M-row population costs the RNG draws plus column appends only.
    ///
    /// Uses the same `(seed, wave)` RNG stream and draw sequence as
    /// [`Generator::cohort`], so the columns are identical to converting
    /// the row cohort (`ColumnarCohort::from_cohort`) — enforced by test.
    pub fn columnar_cohort(&self, wave: Wave, n: usize) -> ColumnarCohort {
        let stream = self.seed ^ (u64::from(wave.year()) << 32);
        let mut rng = StdRng::seed_from_u64(stream);
        let cal = Calibration::for_wave(wave);
        let mut b = ColumnarBuilder::new(wave.name(), wave.year(), q::questionnaire())
            .expect("canonical questionnaire fits columnar limits");
        for _ in 0..n {
            b.begin_row(None);
            let mut sink = ColumnarSink { b: &mut b };
            generate_one_into(&mut rng, &cal, &mut sink);
        }
        b.finish()
    }

    /// Generates a cohort of `n` respondents from explicit calibration
    /// overrides (used by the trend interpolator).
    pub(crate) fn cohort_with(
        &self,
        cal: &InterpolatedCalibration,
        name: &str,
        year: u16,
        n: usize,
    ) -> Cohort {
        let stream = self.seed ^ (u64::from(year) << 32) ^ 0x5EED;
        let mut rng = StdRng::seed_from_u64(stream);
        let mut cohort = Cohort::new(name, year, q::questionnaire());
        for i in 0..n {
            let r = generate_one_interp(&mut rng, cal, &format!("{name}-{i:04}"));
            cohort.push(r).expect("generated responses are valid");
        }
        cohort
    }
}

/// Whether to skip an optional item (item non-response).
fn skip(rng: &mut StdRng) -> bool {
    sampler::bernoulli(rng, NONRESPONSE_RATE)
}

fn generate_one(rng: &mut StdRng, cal: &Calibration, id: &str) -> Response {
    let mut sink = ResponseSink {
        r: Response::new(id),
    };
    generate_one_into(rng, cal, &mut sink);
    let r = sink.r;
    debug_assert!(r.validate(&q::questionnaire()).is_ok());
    r
}

/// The generator core: draws one respondent and emits the answers into
/// `sink`. The RNG draw sequence is the determinism contract — both the
/// row and columnar cohorts are defined by it, so any edit here changes
/// every committed experiment artifact.
fn generate_one_into<S: RowSink>(rng: &mut StdRng, cal: &Calibration, sink: &mut S) {
    // Persona: field and stage are always answered (screener questions).
    let field = q::FIELDS[sampler::categorical(rng, &cal.field_weights())];
    let stage = q::STAGES[sampler::categorical(rng, &cal.stage_weights())];
    sink.choice(q::Q_FIELD, field);
    sink.choice(q::Q_STAGE, stage);

    // Languages: correlated Bernoullis with field adjustments; at least one.
    let mut langs: Vec<&str> = Vec::new();
    for lang in q::LANGUAGES {
        let p = sampler::logit_shift(cal.lang_base(lang), cal.field_lang_logit(field, lang));
        if sampler::bernoulli(rng, p) {
            langs.push(lang);
        }
    }
    if langs.is_empty() {
        // Everyone computes in something; fall back to the wave's most
        // popular language.
        let best = q::LANGUAGES
            .iter()
            .max_by(|a, b| {
                cal.lang_base(a)
                    .partial_cmp(&cal.lang_base(b))
                    .expect("finite")
            })
            .expect("non-empty language list");
        langs.push(best);
    }
    if !skip(rng) {
        sink.choices(q::Q_LANGS, &langs);
    }

    // Primary language: weighted pick among the used ones.
    let weights: Vec<f64> = langs.iter().map(|l| cal.primary_weight(l)).collect();
    let primary = langs[sampler::categorical(rng, &weights)];
    if !skip(rng) {
        sink.choice(q::Q_PRIMARY_LANG, primary);
    }

    // Parallelism: structured multi-select.
    let mut modes: Vec<&str> = Vec::new();
    let multicore = sampler::bernoulli(rng, cal.parallelism_base("multicore"));
    let gpu = sampler::bernoulli(
        rng,
        sampler::logit_shift(cal.parallelism_base("gpu"), cal.field_gpu_logit(field)),
    );
    let cluster = sampler::bernoulli(rng, cal.parallelism_base("cluster"));
    let cloud = sampler::bernoulli(rng, cal.parallelism_base("cloud"));
    // GPU work almost always coexists with multicore hosts.
    if multicore || gpu {
        modes.push("multicore");
    }
    if gpu {
        modes.push("gpu");
    }
    if cluster {
        modes.push("cluster");
    }
    if cloud {
        modes.push("cloud");
    }
    if modes.is_empty() {
        modes.push("none");
    }
    if !skip(rng) {
        sink.choices(q::Q_PARALLELISM, &modes);
    }

    // Practices: Bernoullis with a stage shift.
    let stage_delta = cal.stage_practice_logit(stage);
    let practices: Vec<&str> = q::PRACTICES
        .iter()
        .filter(|p| {
            sampler::bernoulli(rng, sampler::logit_shift(cal.practice_base(p), stage_delta))
        })
        .copied()
        .collect();
    if !skip(rng) {
        sink.choices(q::Q_PRACTICES, &practices);
    }

    // Cluster frequency conditioned on cluster use.
    let freq_weights = cal.cluster_freq_weights(cluster);
    let freq = q::CLUSTER_FREQS[sampler::categorical(rng, &freq_weights)];
    if !skip(rng) {
        sink.choice(q::Q_CLUSTER_FREQ, freq);
    }

    // Core counts: log-normal snapped to powers of two.
    let (mu, sigma) = cal.cores_lognormal(cluster);
    if !skip(rng) {
        sink.number(
            q::Q_CORES,
            sampler::cores_like(rng, mu, sigma, 1.0, 1_000_000.0),
        );
    }

    // Experience by stage.
    let (ymean, ysd) = cal.years_by_stage(stage);
    if !skip(rng) {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let years = (ymean + ysd * z).clamp(0.0, 60.0);
        sink.number(q::Q_YEARS, (years * 2.0).round() / 2.0);
    }

    // Pain Likert items.
    for item in q::PAIN_ITEMS {
        if !skip(rng) {
            sink.scale(item, sampler::likert(rng, cal.pain_mean(item), 1.0, 5));
        }
    }

    // Free-text "biggest obstacle" comment (its own skip model: the comment
    // rate, not the item non-response rate).
    if let Some(text) = crate::comments::generate_comment(rng, cal.wave()) {
        sink.text(q::Q_COMMENTS, text);
    }
}

/// A calibration snapshot interpolated between the two waves (used for the
/// yearly trend series in experiment E3). Only the items the trend figure
/// plots are interpolated; everything else uses 2024 values.
#[derive(Debug, Clone)]
pub struct InterpolatedCalibration {
    /// Interpolation parameter: 0 = 2011, 1 = 2024.
    pub t: f64,
}

impl InterpolatedCalibration {
    /// Probability of using `lang` at interpolation point `t` (logit-space
    /// interpolation so trajectories stay inside the unit interval and look
    /// like adoption curves rather than straight lines).
    pub fn lang_p(&self, lang: &str) -> f64 {
        let a = Calibration::for_wave(Wave::Y2011)
            .lang_base(lang)
            .clamp(0.01, 0.99);
        let b = Calibration::for_wave(Wave::Y2024)
            .lang_base(lang)
            .clamp(0.01, 0.99);
        let la = (a / (1.0 - a)).ln();
        let lb = (b / (1.0 - b)).ln();
        let l = la + (lb - la) * self.t;
        1.0 / (1.0 + (-l).exp())
    }
}

fn generate_one_interp(rng: &mut StdRng, cal: &InterpolatedCalibration, id: &str) -> Response {
    let mut sink = ResponseSink {
        r: Response::new(id),
    };
    generate_one_interp_into(rng, cal, &mut sink);
    let r = sink.r;
    debug_assert!(r.validate(&q::questionnaire()).is_ok());
    r
}

/// Trend-cohort core: only the language item is drawn (the only item the
/// E3 figure plots).
fn generate_one_interp_into<S: RowSink>(
    rng: &mut StdRng,
    cal: &InterpolatedCalibration,
    sink: &mut S,
) {
    let mut langs: Vec<&str> = Vec::new();
    for lang in q::LANGUAGES {
        if sampler::bernoulli(rng, cal.lang_p(lang)) {
            langs.push(lang);
        }
    }
    if langs.is_empty() {
        langs.push("python");
    }
    sink.choices(q::Q_LANGS, &langs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_survey::query::Filter;

    #[test]
    fn cohorts_are_deterministic_per_seed() {
        let g = Generator::new(7);
        let a = g.cohort(Wave::Y2024, 50);
        let b = g.cohort(Wave::Y2024, 50);
        assert_eq!(a, b);
        let c = Generator::new(8).cohort(Wave::Y2024, 50);
        assert_ne!(a, c);
    }

    #[test]
    fn waves_use_independent_streams() {
        let g = Generator::new(7);
        let a = g.cohort(Wave::Y2011, 50);
        let b = g.cohort(Wave::Y2024, 50);
        assert_eq!(a.year(), 2011);
        assert_eq!(b.year(), 2024);
        assert_ne!(a.responses()[0], b.responses()[0]);
    }

    #[test]
    fn all_responses_validate_and_screeners_always_answered() {
        let c = Generator::new(42).cohort(Wave::Y2024, 200);
        assert_eq!(c.len(), 200);
        for r in c.responses() {
            assert!(r.validate(c.schema()).is_ok());
            assert!(r.answered(q::Q_FIELD));
            assert!(r.answered(q::Q_STAGE));
        }
    }

    #[test]
    fn nonresponse_present_but_small() {
        let c = Generator::new(42).cohort(Wave::Y2024, 400);
        let rate = c.response_rate(q::Q_LANGS);
        assert!(rate > 0.9 && rate < 1.0, "rate = {rate}");
    }

    #[test]
    fn marginals_track_calibration_2024() {
        let c = Generator::new(1).cohort(Wave::Y2024, 1500);
        let (py, n) = c.selected_count(q::Q_LANGS, "python").unwrap();
        let p = py as f64 / n as f64;
        // Base 0.87 plus small positive field effects.
        assert!((p - 0.87).abs() < 0.06, "python share = {p}");
        let (vc, n) = c.selected_count(q::Q_PRACTICES, "version-control").unwrap();
        let p = vc as f64 / n as f64;
        assert!((p - 0.86).abs() < 0.06, "vcs share = {p}");
    }

    #[test]
    fn marginals_track_calibration_2011() {
        let c = Generator::new(1).cohort(Wave::Y2011, 1500);
        let (py, n) = c.selected_count(q::Q_LANGS, "python").unwrap();
        let p = py as f64 / n as f64;
        assert!((p - 0.42).abs() < 0.07, "python share 2011 = {p}");
        let (gpu, n) = c.selected_count(q::Q_PARALLELISM, "gpu").unwrap();
        let p = gpu as f64 / n as f64;
        assert!(p < 0.15, "gpu share 2011 = {p}");
    }

    #[test]
    fn joint_structure_gpu_implies_multicore() {
        let c = Generator::new(3).cohort(Wave::Y2024, 800);
        for r in c.responses() {
            if let Some(modes) = r.answer(q::Q_PARALLELISM).and_then(Answer::as_choices) {
                if modes.iter().any(|m| m == "gpu") {
                    assert!(
                        modes.iter().any(|m| m == "multicore"),
                        "GPU user without multicore: {modes:?}"
                    );
                }
                if modes.iter().any(|m| m == "none") {
                    assert_eq!(modes.len(), 1, "'none' must be exclusive: {modes:?}");
                }
            }
        }
    }

    #[test]
    fn joint_structure_cluster_users_run_bigger_jobs() {
        let c = Generator::new(5).cohort(Wave::Y2024, 1000);
        let cluster =
            rcr_survey::query::filter_cohort(&c, &Filter::selected(q::Q_PARALLELISM, "cluster"));
        let non = rcr_survey::query::filter_cohort(
            &c,
            &Filter::selected(q::Q_PARALLELISM, "cluster").not(),
        );
        let mc = rcr_stats_mean(&cluster.numeric_values(q::Q_CORES).unwrap());
        let mn = rcr_stats_mean(&non.numeric_values(q::Q_CORES).unwrap());
        assert!(mc > 4.0 * mn, "cluster mean {mc} vs non {mn}");
    }

    fn rcr_stats_mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn field_effects_visible_fortran_in_physical_sciences() {
        let c = Generator::new(11).cohort(Wave::Y2011, 2000);
        let astro =
            rcr_survey::query::filter_cohort(&c, &Filter::choice_is(q::Q_FIELD, "astronomy"));
        let social =
            rcr_survey::query::filter_cohort(&c, &Filter::choice_is(q::Q_FIELD, "social-science"));
        let (fa, na) = astro.selected_count(q::Q_LANGS, "fortran").unwrap();
        let (fs, ns) = social.selected_count(q::Q_LANGS, "fortran").unwrap();
        let pa = fa as f64 / na as f64;
        let ps = fs as f64 / ns.max(1) as f64;
        assert!(pa > ps + 0.15, "astro fortran {pa} vs social {ps}");
    }

    #[test]
    fn interpolated_calibration_moves_monotonically() {
        let start = InterpolatedCalibration { t: 0.0 };
        let mid = InterpolatedCalibration { t: 0.5 };
        let end = InterpolatedCalibration { t: 1.0 };
        assert!(start.lang_p("python") < mid.lang_p("python"));
        assert!(mid.lang_p("python") < end.lang_p("python"));
        assert!(start.lang_p("fortran") > end.lang_p("fortran"));
        // Endpoints match the wave calibrations (within the clamp).
        assert!((start.lang_p("python") - 0.42).abs() < 0.02);
        assert!((end.lang_p("python") - 0.87).abs() < 0.02);
    }

    #[test]
    fn columnar_stream_matches_row_conversion() {
        let g = Generator::new(0xC0FFEE);
        for wave in [Wave::Y2011, Wave::Y2024] {
            let rows = g.cohort(wave, 150);
            let via_rows = ColumnarCohort::from_cohort(&rows).unwrap();
            let streamed = g.columnar_cohort(wave, 150);
            assert!(
                streamed.same_data(&via_rows),
                "streamed columns diverge from row conversion for {wave:?}"
            );
        }
    }

    #[test]
    fn columnar_interp_matches_row_conversion() {
        let g = Generator::new(9);
        let cal = InterpolatedCalibration { t: 0.5 };
        let rows = g.cohort_with(&cal, "2017", 2017, 120);
        let via_rows = ColumnarCohort::from_cohort(&rows).unwrap();
        // The same stream `cohort_with` draws from, fed to a columnar sink.
        let mut rng = StdRng::seed_from_u64(9 ^ (2017u64 << 32) ^ 0x5EED);
        let mut b = ColumnarBuilder::new("2017", 2017, q::questionnaire()).unwrap();
        for _ in 0..120 {
            b.begin_row(None);
            generate_one_interp_into(&mut rng, &cal, &mut ColumnarSink { b: &mut b });
        }
        assert!(b.finish().same_data(&via_rows));
    }

    #[test]
    fn interp_cohort_generation() {
        let g = Generator::new(9);
        let cal = InterpolatedCalibration { t: 0.5 };
        let c = g.cohort_with(&cal, "2017", 2017, 150);
        assert_eq!(c.len(), 150);
        assert_eq!(c.year(), 2017);
        let (py, n) = c.selected_count(q::Q_LANGS, "python").unwrap();
        let p = py as f64 / n as f64;
        let expect = cal.lang_p("python");
        assert!((p - expect).abs() < 0.1, "python at t=0.5: {p} vs {expect}");
    }
}
