//! `survey_trends`: synthetic survey ingest plus a subgroup trend battery.
//!
//! Set-up ingests a 2011-wave and a 2024-wave cohort straight into columnar
//! form (the write path). The timed phase repeats a battery over every
//! field × stage subgroup (8 × 4): the subgroup's selection bitmap, the
//! columnar aggregations (languages, parallelism incl. GPU, practices,
//! cluster use, pain points, a crosstab), and the 2011-vs-2024 shift tests
//! (two-proportion z, Wilson intervals, χ², Benjamini–Hochberg) — the read
//! path.
//!
//! The timed battery runs on the serial engine. On a 2-vCPU host the
//! parallel engine (`Engine::parallel(nproc)`) ran the same battery slower
//! (0.5–1.3 vs 1.3–1.75 G rows/s) and with a run-to-run spread five times
//! wider, because each subgroup aggregation is short enough for the pool
//! hand-off to dominate. Each run still executes the battery on the
//! parallel engine as an output check (its results must equal the serial
//! ones bit for bit), and the traced run reports its speed-up over serial.

use std::time::{Duration, Instant};

use rcr_kernels::bitmap::Bitmap;
use rcr_stats::table::ContingencyTable;
use rcr_stats::{ci, multiplicity, tests};
use rcr_survey::canonical::{
    FIELDS, PAIN_ITEMS, Q_CLUSTER_FREQ, Q_FIELD, Q_LANGS, Q_PARALLELISM, Q_PRACTICES,
    Q_PRIMARY_LANG, Q_STAGE, STAGES,
};
use rcr_survey::columnar::{ColumnarCohort, Engine};
use rcr_survey::query::Filter;
use rcr_synth::calibration::Wave;
use rcr_synth::generator::Generator;

use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{Fnv, Report, RunArgs};

/// Respondents generated per wave. Run to run on a shared 2-vCPU host,
/// the scan rate over two 300 000-row cohorts spread ±14% (the scans are
/// memory-bound, so neighbours' memory traffic shows), against ±7.5% for
/// 50 000-row cohorts measured alternately with them.
const ROWS_PER_WAVE: usize = 50_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Multi-choice questions whose options are tested for a 2011→2024 shift.
const SHIFT_QUESTIONS: [&str; 3] = [Q_LANGS, Q_PARALLELISM, Q_PRACTICES];

/// The ingested cohorts.
struct Cohorts {
    waves: [ColumnarCohort; 2],
}

fn ingest(seed: u64) -> Cohorts {
    let g = Generator::new(seed);
    Cohorts {
        waves: [
            g.columnar_cohort(Wave::Y2011, ROWS_PER_WAVE),
            g.columnar_cohort(Wave::Y2024, ROWS_PER_WAVE),
        ],
    }
}

/// Absorbs the generator parameters `seed` fixes into `h`.
pub fn fingerprint(seed: u64, h: &mut Fnv) {
    h.u64(seed);
    h.u64(ROWS_PER_WAVE as u64);
    for w in [Wave::Y2011, Wave::Y2024] {
        h.u64(u64::from(w.year()));
    }
}

fn subgroup(field: &str, stage: &str) -> Filter {
    Filter::And(
        Box::new(Filter::ChoiceIs {
            question: Q_FIELD.into(),
            option: field.into(),
        }),
        Box::new(Filter::ChoiceIs {
            question: Q_STAGE.into(),
            option: stage.into(),
        }),
    )
}

/// Work counts of one battery.
#[derive(Debug, Default)]
struct Work {
    select_calls: u64,
    aggregate_calls: u64,
    rows_scanned: u64,
    test_calls: u64,
}

/// Aggregates of one wave's subgroup.
struct WaveAggregates {
    n: u64,
    shares: Vec<(u64, u64)>,
    freq: Vec<u64>,
}

/// Runs every aggregation for one wave's subgroup selection, hashing each
/// result into `h`.
fn aggregate(
    cohort: &ColumnarCohort,
    sel: &Bitmap,
    engine: &Engine,
    tracer: &mut Tracer,
    g: u64,
    work: &mut Work,
    h: &mut Fnv,
) -> WaveAggregates {
    let rows = cohort.n_rows() as u64;
    let mut agg = |tracer: &mut Tracer| {
        work.aggregate_calls += 1;
        work.rows_scanned += rows;
        tracer.enter("survey.columnar.aggregate", g)
    };
    let span = agg(tracer);
    let n = engine.count(cohort, sel);
    tracer.exit(span);
    h.u64(n);
    let mut shares = Vec::new();
    for q in SHIFT_QUESTIONS {
        let span = agg(tracer);
        let (counts, answered) = engine
            .multi_choice_counts(cohort, q, Some(sel))
            .expect("canonical multi-choice question");
        tracer.exit(span);
        for (_, c) in counts {
            h.u64(c);
            shares.push((c, answered));
        }
        h.u64(answered);
    }
    let span = agg(tracer);
    let (freq, _) = engine
        .single_choice_counts(cohort, Q_CLUSTER_FREQ, Some(sel))
        .expect("canonical single-choice question");
    tracer.exit(span);
    let freq: Vec<u64> = freq.into_iter().map(|(_, c)| c).collect();
    freq.iter().for_each(|&c| h.u64(c));
    for item in PAIN_ITEMS {
        let span = agg(tracer);
        let (sum, count) = engine
            .likert_sum_count(cohort, item, Some(sel))
            .expect("canonical likert item");
        tracer.exit(span);
        h.u64(sum.to_bits());
        h.u64(count);
    }
    let span = agg(tracer);
    let xt = engine
        .crosstab(cohort, Q_PRIMARY_LANG, Q_CLUSTER_FREQ, Some(sel))
        .expect("canonical single-choice questions");
    tracer.exit(span);
    xt.counts.iter().for_each(|&c| h.u64(c));
    WaveAggregates { n, shares, freq }
}

/// The 2011-vs-2024 shift tests of one subgroup, hashed into `h`.
fn shift_tests(old: &WaveAggregates, new: &WaveAggregates, work: &mut Work, h: &mut Fnv) {
    let mut ps = Vec::with_capacity(old.shares.len() + 1);
    for (&(x1, n1), &(x2, n2)) in old.shares.iter().zip(&new.shares) {
        if n1 == 0 || n2 == 0 {
            continue;
        }
        let t = tests::two_proportion_z(x1, n1, x2, n2).expect("valid counts");
        let lo = ci::wilson(x1, n1, 0.95).expect("valid counts");
        let hi = ci::wilson(x2, n2, 0.95).expect("valid counts");
        work.test_calls += 3;
        for v in [t.statistic, t.p_value, lo.lo, lo.hi, hi.lo, hi.hi] {
            h.u64(v.to_bits());
        }
        ps.push(t.p_value);
    }
    // χ² on the 2 × k cluster-use table, over the levels anyone picked.
    let (a, b): (Vec<u64>, Vec<u64>) = old
        .freq
        .iter()
        .zip(&new.freq)
        .filter(|(x, y)| **x + **y > 0)
        .map(|(x, y)| (*x, *y))
        .unzip();
    if a.len() >= 2 && old.n > 0 && new.n > 0 {
        let counts: Vec<u64> = a.iter().chain(&b).copied().collect();
        let table = ContingencyTable::from_counts(2, a.len(), &counts).expect("2 × k table");
        let t = tests::chi_square_independence(&table).expect("non-zero margins");
        work.test_calls += 1;
        h.u64(t.statistic.to_bits());
        ps.push(t.p_value);
    }
    if !ps.is_empty() {
        let adjusted = multiplicity::benjamini_hochberg(&ps).expect("p-values in [0, 1]");
        work.test_calls += 1;
        adjusted.iter().for_each(|p| h.u64(p.to_bits()));
    }
}

/// One battery over every field × stage subgroup. Returns the digest of
/// every result, the work done, and each subgroup query's wall time.
fn battery(
    cohorts: &Cohorts,
    engine: &Engine,
    tracer: &mut Tracer,
    work: &mut Work,
) -> (u64, Vec<f64>) {
    let mut h = Fnv::default();
    let mut walls = Vec::with_capacity(FIELDS.len() * STAGES.len());
    for (fi, field) in FIELDS.iter().enumerate() {
        for (si, stage) in STAGES.iter().enumerate() {
            let g = (fi * STAGES.len() + si) as u64;
            let t0 = Instant::now();
            let root = tracer.enter("bench.survey.query", g);
            let filter = subgroup(field, stage);
            let mut per_wave = Vec::with_capacity(2);
            for cohort in &cohorts.waves {
                let span = tracer.enter("survey.columnar.select", g);
                let sel = cohort.select(&filter);
                tracer.exit(span);
                work.select_calls += 1;
                work.rows_scanned += cohort.n_rows() as u64;
                per_wave.push(aggregate(cohort, &sel, engine, tracer, g, work, &mut h));
            }
            let span = tracer.enter("stats.tests", g);
            shift_tests(&per_wave[0], &per_wave[1], work, &mut h);
            tracer.exit(span);
            tracer.exit(root);
            walls.push(t0.elapsed().as_secs_f64());
        }
    }
    (h.finish(), walls)
}

/// Output checks: the parallel engine's battery equals the serial one's
/// bit for bit, each subgroup's size equals its field × stage crosstab
/// cell, and each subgroup crosstab's total equals the number of its rows
/// that answered both questions. Returns the parallel battery's wall time
/// and a description of each failure.
fn check(cohorts: &Cohorts, serial_digest: u64) -> (f64, Vec<String>) {
    let mut errors = Vec::new();
    let parallel = Engine::parallel(crate::procfs::nproc());
    let t0 = Instant::now();
    let (digest, _) = battery(
        cohorts,
        &parallel,
        &mut Tracer::disabled(),
        &mut Work::default(),
    );
    let parallel_s = t0.elapsed().as_secs_f64();
    if digest != serial_digest {
        errors.push(format!(
            "parallel battery {digest:016x} != serial battery {serial_digest:016x}"
        ));
    }
    for cohort in &cohorts.waves {
        let grid = parallel
            .crosstab(cohort, Q_FIELD, Q_STAGE, None)
            .expect("canonical single-choice questions");
        for (fi, field) in FIELDS.iter().enumerate() {
            for (si, stage) in STAGES.iter().enumerate() {
                let filter = subgroup(field, stage);
                let sel = cohort.select(&filter);
                let n = parallel.count(cohort, &sel);
                if n != grid.at(fi, si) {
                    errors.push(format!("{field}/{stage}: {n} rows vs crosstab cell"));
                }
                let xt = parallel
                    .crosstab(cohort, Q_PRIMARY_LANG, Q_CLUSTER_FREQ, Some(&sel))
                    .expect("canonical single-choice questions");
                let both = Filter::And(
                    Box::new(filter),
                    Box::new(Filter::And(
                        Box::new(Filter::Answered(Q_PRIMARY_LANG.into())),
                        Box::new(Filter::Answered(Q_CLUSTER_FREQ.into())),
                    )),
                );
                let answered = cohort.select(&both).count_ones();
                if xt.total != answered {
                    errors.push(format!(
                        "{field}/{stage}: crosstab total {} vs {answered} answered",
                        xt.total
                    ));
                }
            }
        }
    }
    (parallel_s, errors)
}

/// Runs `survey_trends`.
pub fn run(args: &RunArgs) -> Report {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut cohorts = None;
    for _ in 0..SETUPS {
        drop(cohorts.take());
        let t0 = Instant::now();
        cohorts = Some(ingest(args.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let cohorts = cohorts.expect("at least one set-up");
    let engine = Engine::serial();

    let cpu0 = crate::procfs::cpu_s();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let until = Instant::now() + Duration::from_secs_f64(untraced_s);
    let mut quiet = Tracer::disabled();
    let mut digests = Vec::new();
    let mut battery_walls = Vec::new();
    let mut query_walls = Vec::new();
    let mut rows_per_s = Vec::new();
    while digests.is_empty() || Instant::now() < until {
        let mut work = Work::default();
        let t0 = Instant::now();
        let (d, walls) = battery(&cohorts, &engine, &mut quiet, &mut work);
        let wall = t0.elapsed().as_secs_f64();
        digests.push(d);
        battery_walls.push(wall);
        rows_per_s.push(work.rows_scanned as f64 / wall);
        query_walls.extend(walls.iter().map(|w| w * 1e3));
    }
    let mut tracer = Tracer::enabled();
    let mut traced_work = Work::default();
    let traced = args.trace.then(|| {
        let t0 = Instant::now();
        let (d, _) = battery(&cohorts, &engine, &mut tracer, &mut traced_work);
        (d, t0.elapsed().as_secs_f64())
    });
    let cpu_s = crate::procfs::cpu_s() - cpu0;

    let (parallel_s, mut errors) = check(&cohorts, digests[0]);
    if digests
        .iter()
        .chain(traced.as_ref().map(|(d, _)| d))
        .any(|d| *d != digests[0])
    {
        errors.push("battery results differ between repetitions".into());
    }
    for e in &errors {
        eprintln!("survey_trends check failed: {e}");
    }
    let mut report = Report::default();
    report.correct = errors.is_empty();
    report.attempted = query_walls.len() as u64;
    report.failed = if report.correct { 0 } else { report.attempted };

    report.set("setup_s", median(&setups));
    report.set("throughput_per_s", median(&rows_per_s));
    report.set("latency_p50_ms", median(&query_walls));
    report.set("peak_rss_mb", crate::procfs::peak_rss_mb());

    if let Some((_, wall)) = traced {
        let total = |name: &str| tracer.self_secs(name).iter().sum::<f64>();
        report.set(
            "synth.generator.rows_per_s",
            (2 * ROWS_PER_WAVE) as f64 / median(&setups),
        );
        report.set("survey.columnar.select_s", total("survey.columnar.select"));
        report.set(
            "survey.columnar.select_calls",
            traced_work.select_calls as f64,
        );
        report.set(
            "survey.columnar.aggregate_s",
            total("survey.columnar.aggregate"),
        );
        report.set(
            "survey.columnar.aggregate_calls",
            traced_work.aggregate_calls as f64,
        );
        report.set(
            "survey.columnar.rows_scanned",
            traced_work.rows_scanned as f64,
        );
        report.set("stats.tests_s", total("stats.tests"));
        report.set("stats.calls", traced_work.test_calls as f64);
        report.set(
            "survey.columnar.parallel_speedup",
            median(&battery_walls) / parallel_s,
        );
        report.set_summary("e2e.latency_ms", &summarize(&query_walls));
        report.set("trace.overhead_ratio", wall / median(&battery_walls));
        report.set("trace.coverage", tracer.coverage(wall));
    }
    report.set("proc.cpu_s", cpu_s);
    report.tracer = args.trace.then_some(tracer);
    report
}
