//! E23 (Figure 12): the cluster-DES scaling machinery — raw event-queue
//! push/pop cost, a full serial replay, and the windowed runner, plus
//! the quick E23 study end to end (every arm digest-verified before any
//! timing).

use criterion::{criterion_group, criterion_main, Criterion};
use rcr_bench::render;
use rcr_cluster::event::{EventKind, EventQueue};
use rcr_cluster::sched::Policy;
use rcr_cluster::sim::Simulator;
use rcr_cluster::windowed::{WindowedSim, WindowedSpec};
use rcr_cluster::workload::{generate, WorkloadSpec};
use rcr_core::experiments::Experiments;
use rcr_core::perfgap::GapConfig;
use rcr_core::simstudy;
use rcr_core::MASTER_SEED;

const QUEUE_EVENTS: usize = 10_000;

fn queue_churn() -> usize {
    // Interleaved push/pop with monotone-ish times: the DES access
    // pattern (pop-min, push a finish slightly in the future).
    let mut q = EventQueue::new();
    let mut clock = 0.0f64;
    let mut popped = 0usize;
    for i in 0..QUEUE_EVENTS {
        q.push(
            clock + 10.0 + (i % 97) as f64,
            EventKind::Finish { job: i, attempt: 1 },
        );
        if i % 2 == 1 {
            let ev = q.pop().expect("queue non-empty");
            clock = ev.time;
            popped += 1;
        }
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

fn bench(c: &mut Criterion) {
    // The quick study first: verifies both arms agree bit-for-bit
    // before any microbenchmark number is printed.
    let ex = Experiments::new(MASTER_SEED);
    let points = ex
        .e23_simstudy(&GapConfig::quick())
        .expect("E23 quick study runs");
    println!("{}", render::e23_table(&points).render_ascii());
    assert!(render::e23_figure(&points).contains("</svg>"));
    assert!(points.iter().all(|p| p.verified));

    let spec = WorkloadSpec {
        n_jobs: 2_000,
        cluster_nodes: 64,
        offered_load: 0.85,
        ..Default::default()
    };
    let jobs = generate(&spec, MASTER_SEED);
    let fault_model = simstudy::fault_model(MASTER_SEED);

    let mut g = c.benchmark_group("e23_sim");
    g.sample_size(20);
    g.bench_function("queue_churn_10k_heap", |b| b.iter(queue_churn));
    g.bench_function("serial_replay_2k_heap", |b| {
        let sim = Simulator::new(64, Policy::EasyBackfill)
            .with_faults(fault_model)
            .expect("fault spec validates");
        b.iter(|| sim.run(jobs.clone()).expect("replay runs"))
    });
    g.bench_function("windowed_replay_2k_2shards", |b| {
        let sim = WindowedSim::new(WindowedSpec {
            nodes_per_shard: 64,
            shards: 2,
            policy: Policy::EasyBackfill,
            faults: fault_model,
            window: 5_000.0,
            threads: 2,
        })
        .expect("spec validates");
        b.iter(|| sim.run(jobs.clone()).expect("windowed replay runs"))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
