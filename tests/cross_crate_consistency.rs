//! Cross-crate consistency: independent implementations of the same
//! quantity must agree wherever the crates overlap.

use rcr_core::MASTER_SEED;

#[test]
fn script_and_native_matmul_agree_elementwise() {
    // Build identical matrices in ResearchScript and in Rust, multiply both
    // ways, compare the checksums.
    let n = 12;
    let src = format!(
        "fn matmul(a, b, c, n) {{\n  for i in range(0, n) {{\n    for j in range(0, n) {{\n      let acc = 0;\n      for k in range(0, n) {{ acc = acc + a[i * n + k] * b[k * n + j]; }}\n      c[i * n + j] = acc;\n    }}\n  }}\n}}\nlet n = {n};\nlet a = zeros(n * n);\nlet b = zeros(n * n);\nlet c = zeros(n * n);\nfor i in range(0, n * n) {{ a[i] = (i % 7) * 0.25; b[i] = ((i % 5) + 1) * 0.5; }}\nmatmul(a, b, c, n);\nvsum(c)"
    );
    let script = match rcr_minilang::run_source_vm(&src).expect("script runs") {
        rcr_minilang::Value::Num(v) => v,
        other => panic!("expected number, got {other:?}"),
    };
    let a: Vec<f64> = (0..n * n).map(|i| (i % 7) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..n * n).map(|i| ((i % 5) + 1) as f64 * 0.5).collect();
    let native: f64 = rcr_kernels::matmul::blocked(&a, &b, n).iter().sum();
    assert!((script - native).abs() < 1e-9 * native.abs().max(1.0));
}

#[test]
fn stats_bootstrap_brackets_analytic_interval() {
    // The bootstrap CI of a mean and the analytic t-interval should roughly
    // coincide on a well-behaved sample.
    let xs: Vec<f64> = (0..400).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
    let t_ci = rcr_stats::ci::mean_t(&xs, 0.95).expect("t interval");
    let b_ci = rcr_stats::resample::bootstrap_ci(
        &xs,
        |s| rcr_stats::descriptive::mean(s).expect("non-empty"),
        2000,
        0.95,
        MASTER_SEED,
    )
    .expect("bootstrap");
    assert!((t_ci.lo - b_ci.lo).abs() < 0.2, "{t_ci:?} vs {b_ci:?}");
    assert!((t_ci.hi - b_ci.hi).abs() < 0.2, "{t_ci:?} vs {b_ci:?}");
}

#[test]
fn survey_counts_match_stats_frequency_table() {
    use rcr_stats::table::FreqTable;
    use rcr_survey::canonical as q;
    use rcr_synth::calibration::Wave;
    use rcr_synth::generator::Generator;

    let cohort = Generator::new(MASTER_SEED).cohort(Wave::Y2024, 300);
    let (counts, _) = cohort
        .single_choice_counts(q::Q_FIELD)
        .expect("field counts");
    // Recount independently through the generic frequency table.
    let labels = cohort.responses().iter().filter_map(|r| {
        r.answer(q::Q_FIELD)
            .and_then(|a| a.as_choice())
            .map(str::to_owned)
    });
    let freq = FreqTable::from_labels(labels);
    for (field, count) in counts {
        assert_eq!(freq.count(&field), count, "mismatch for {field}");
    }
}

#[test]
fn cluster_utilization_consistent_with_workload_offered_load() {
    use rcr_cluster::sched::Policy;
    use rcr_cluster::sim::Simulator;
    use rcr_cluster::workload::{generate, WorkloadSpec};

    // At a modest load with a good scheduler, achieved utilization should
    // approach (but not exceed) the offered load.
    let spec = WorkloadSpec {
        n_jobs: 1500,
        offered_load: 0.6,
        ..Default::default()
    };
    let jobs = generate(&spec, MASTER_SEED);
    let s = Simulator::new(spec.cluster_nodes, Policy::EasyBackfill)
        .run(jobs)
        .expect("simulation runs")
        .try_summary()
        .expect("fault-free run completes every job");
    assert!(s.utilization <= 1.0);
    // Achieved utilization sits below the offered load by the ramp/drain
    // tails of the makespan and power-of-two packing losses, but must be in
    // the same regime (well above half-empty, never above the offer).
    assert!(
        s.utilization > 0.35 && s.utilization < 0.6 + 0.1,
        "utilization {:.2} should track offered load 0.6",
        s.utilization
    );
}

#[test]
fn amdahl_fit_recovers_mc_pi_scaling_shape() {
    // Monte-Carlo pi is embarrassingly parallel; the measured scaling curve
    // fed through the stats crate's Amdahl fit must come out with a small
    // serial fraction — but only on a host that actually has cores to scale
    // onto. On a single-core machine (this repo's CI container has one) the
    // fit legitimately reports a serial fraction near 1, so the strong
    // assertion is gated on available parallelism.
    use rcr_core::harness::{measure, verify};
    use rcr_kernels::montecarlo;

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = [1usize, 2, 4];
    let mut times = Vec::new();
    for &t in &threads {
        let m = measure(
            3,
            || montecarlo::pi_parallel(600_000, 7, t),
            |est| {
                verify((est - std::f64::consts::PI).abs() < 0.02, || {
                    est.to_string()
                })
            },
        )
        .expect("every thread count estimates π");
        times.push(m.median_s);
    }
    let speedups: Vec<f64> = times.iter().map(|&t| times[0] / t).collect();
    let tf: Vec<f64> = threads.iter().map(|&t| t as f64).collect();
    let f = rcr_stats::regression::fit_amdahl(&tf, &speedups).expect("fit converges");
    assert!((0.0..=1.0).contains(&f), "fit out of range: {f}");
    if cores >= 4 {
        assert!(
            f < 0.5,
            "mc-pi serial fraction came out {f} on a {cores}-core host"
        );
    }
}

#[test]
fn minilang_tiers_agree_on_a_statistics_computation() {
    // Compute a sample variance in ResearchScript and compare with the
    // stats crate: three independent implementations of one formula.
    let src = "\
        let n = 200;\n\
        let xs = zeros(n);\n\
        for i in range(0, n) { xs[i] = (i % 13) * 0.5; }\n\
        let mean = vsum(xs) / n;\n\
        let ss = 0;\n\
        for i in range(0, n) { let d = xs[i] - mean; ss = ss + d * d; }\n\
        ss / (n - 1)";
    let interp = match rcr_minilang::run_source(src).expect("interp runs") {
        rcr_minilang::Value::Num(v) => v,
        other => panic!("expected number, got {other:?}"),
    };
    let vm = match rcr_minilang::run_source_vm(src).expect("vm runs") {
        rcr_minilang::Value::Num(v) => v,
        other => panic!("expected number, got {other:?}"),
    };
    let xs: Vec<f64> = (0..200).map(|i| (i % 13) as f64 * 0.5).collect();
    let native = rcr_stats::descriptive::variance(&xs).expect("variance");
    assert_eq!(interp, vm, "script tiers disagree");
    assert!(
        (interp - native).abs() < 1e-9,
        "script {interp} vs stats {native}"
    );
}
