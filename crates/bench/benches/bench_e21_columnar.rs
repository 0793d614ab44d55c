//! E21 (Figure 11): columnar analytics kernels — the per-query cost of
//! the survey suite on each engine tier at a fixed population, filter
//! compilation to selection vectors, and the quick scaling study.

use criterion::{criterion_group, criterion_main, Criterion};
use rcr_bench::render;
use rcr_core::experiments::Experiments;
use rcr_core::perfgap::GapConfig;
use rcr_core::questionnaire as q;
use rcr_core::MASTER_SEED;
use rcr_survey::columnar::Engine;
use rcr_survey::query::Filter;
use rcr_synth::calibration::Wave;
use rcr_synth::generator::Generator;

const N: usize = 100_000;

fn bench(c: &mut Criterion) {
    let ex = Experiments::new(MASTER_SEED);
    let points = ex
        .e21_colstudy(&GapConfig::quick())
        .expect("E21 quick study runs");
    println!("{}", render::e21_table(&points).render_ascii());
    assert!(render::e21_figure(&points).contains("</svg>"));

    let g2024 = Generator::new(MASTER_SEED);
    let cohort = g2024.columnar_cohort(Wave::Y2024, N);
    let filter = Filter::choice_is(q::Q_FIELD, "neuroscience")
        .and(Filter::selected(q::Q_PARALLELISM, "gpu"));
    let serial = Engine::serial();
    let parallel = Engine::parallel(2);
    let sel = cohort.select(&filter);

    let mut g = c.benchmark_group("e21_columnar");
    g.sample_size(20);
    g.bench_function("select_filter_100k", |b| b.iter(|| cohort.select(&filter)));
    g.bench_function("count_selection_100k", |b| {
        b.iter(|| serial.count(&cohort, &sel))
    });
    g.bench_function("multi_choice_counts_100k_serial", |b| {
        b.iter(|| {
            serial
                .multi_choice_counts(&cohort, q::Q_LANGS, None)
                .expect("counts")
        })
    });
    g.bench_function("multi_choice_counts_100k_parallel", |b| {
        b.iter(|| {
            parallel
                .multi_choice_counts(&cohort, q::Q_LANGS, None)
                .expect("counts")
        })
    });
    g.bench_function("crosstab_100k", |b| {
        b.iter(|| {
            serial
                .crosstab(&cohort, q::Q_FIELD, q::Q_STAGE, None)
                .expect("crosstab")
        })
    });
    g.bench_function("likert_sum_100k_parallel", |b| {
        b.iter(|| {
            parallel
                .likert_sum_count(&cohort, q::PAIN_ITEMS[0], None)
                .expect("likert sum")
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
