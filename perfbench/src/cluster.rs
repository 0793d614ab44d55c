//! `cluster_replay`: an SWF trace replayed through the `rcr-cluster`
//! discrete-event engine.
//!
//! Set-up generates a workload at load 0.85 and canonicalizes it through
//! SWF text as the E23 study does. Each timed replay streams that text
//! into a single 2 048-node EASY-backfill engine with the E23 fault model,
//! drains it, and summarizes the outcome. The path is single-threaded, and
//! its per-event cost grows with the waiting queue and the running set.
//!
//! The timed trace is the same for every `--seed`: replay cost is a
//! chaotic function of the trace (queue build-up at load 0.85 under
//! heavy-tailed job sizes), and across generated traces it ranged from
//! 1.4 s to 3.7 s on one host, against a 3–4% spread between replays of one
//! trace. `--seed` generates the check trace instead, a smaller trace that
//! each run replays drained and windowed and checks before any number
//! counts.

use std::time::{Duration, Instant};

use rcr_cluster::engine::Engine;
use rcr_cluster::event::QueueKind;
use rcr_cluster::job::Job;
use rcr_cluster::sched::Policy;
use rcr_cluster::swf::{from_swf, stream_jobs, to_swf};
use rcr_cluster::workload::{generate_checked, WorkloadSpec};
use rcr_core::simstudy::fault_model;

use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::{Report, RunArgs};

/// Nodes of the simulated machine.
const NODES: usize = 2048;
/// Jobs in the timed trace.
const JOBS: usize = 60_000;
/// Seed of the timed trace (the E23 master seed).
const TIMED_SEED: u64 = 0xC0FFEE;
/// Jobs in the per-seed check trace.
const CHECK_JOBS: usize = 10_000;
/// Windows of `Engine::advance_to` in a windowed replay.
const WINDOWS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The canonical SWF trace of `jobs` jobs for `seed`: generated,
/// round-tripped through SWF text, sorted by the rounded `(submit, id)`
/// key, and exported again, so file order is canonical order (as
/// `simstudy::build_trace`).
pub fn build_trace(seed: u64, jobs: usize) -> String {
    let spec = WorkloadSpec {
        n_jobs: jobs,
        cluster_nodes: NODES,
        offered_load: 0.85,
        ..Default::default()
    };
    let jobs = generate_checked(&spec, seed).expect("valid workload spec");
    let canonical = from_swf(&to_swf(&jobs)).expect("exported trace parses");
    to_swf(&canonical)
}

/// The check trace `seed` generates.
pub fn check_trace(seed: u64) -> String {
    build_trace(seed, CHECK_JOBS)
}

fn engine(seed: u64) -> Engine {
    Engine::new(
        NODES,
        Policy::EasyBackfill,
        fault_model(seed ^ 0xE23),
        QueueKind::default(),
    )
    .expect("valid cluster")
}

/// What one replay produced, for the output checks.
struct Replay {
    digest: u64,
    completed: usize,
    abandoned: usize,
    node_failures: usize,
    events: u64,
}

/// Untraced replay: stream → inject → drain → summary, resilience, digest.
fn replay(text: &str, seed: u64) -> Replay {
    let mut e = engine(seed);
    for job in stream_jobs(text) {
        e.inject(job.expect("canonical trace parses"))
            .expect("job fits the cluster");
    }
    e.drain();
    finish(e.into_outcome(), &mut Tracer::disabled())
}

fn finish(outcome: rcr_cluster::sim::Outcome, tracer: &mut Tracer) -> Replay {
    let (summary, resilience) = tracer.time("cluster.metrics.summary", 0, || {
        (outcome.try_summary(), outcome.resilience())
    });
    std::hint::black_box((summary.expect("some job completed"), resilience));
    let digest = tracer.time("cluster.sim.digest", 0, || outcome.digest());
    Replay {
        digest,
        completed: outcome.completed.len(),
        abandoned: outcome.abandoned.len(),
        node_failures: outcome.node_failures,
        events: outcome.events,
    }
}

/// Per-window engine progress of the traced replay.
struct Window {
    events: u64,
    seconds: f64,
}

/// Traced replay: parse, inject, then advance in [`WINDOWS`] windows of
/// simulated time (the last one drains), with a span around each call.
fn traced_replay(text: &str, seed: u64, tracer: &mut Tracer) -> (Replay, Vec<Window>) {
    let root = tracer.enter("bench.cluster.replay", 0);
    let jobs: Vec<Job> = tracer.time("cluster.swf.parse", 0, || {
        stream_jobs(text)
            .collect::<Result<_, _>>()
            .expect("canonical trace parses")
    });
    let horizon = jobs.last().map_or(1.0, |j| j.submit);
    let mut e = engine(seed);
    tracer.time("cluster.engine.inject", 0, || {
        for job in jobs {
            e.inject(job).expect("job fits the cluster");
        }
    });
    let mut windows = Vec::with_capacity(WINDOWS);
    for w in 1..=WINDOWS {
        let before = e.events_processed();
        let t0 = Instant::now();
        tracer.time("cluster.engine.advance", 0, || {
            if w == WINDOWS {
                e.drain();
            } else {
                e.advance_to(horizon * w as f64 / WINDOWS as f64);
            }
        });
        windows.push(Window {
            events: e.events_processed() - before,
            seconds: t0.elapsed().as_secs_f64(),
        });
    }
    let outcome = e.into_outcome();
    let r = finish(outcome, tracer);
    tracer.exit(root);
    (r, windows)
}

fn rate(windows: &[Window]) -> f64 {
    let events: u64 = windows.iter().map(|w| w.events).sum();
    let secs: f64 = windows.iter().map(|w| w.seconds).sum();
    events as f64 / secs
}

/// Output checks on a replay of `jobs` jobs: every job resolved, and
/// every digest equal to the first.
fn check(label: &str, jobs: usize, replays: &[&Replay], errors: &mut Vec<String>) {
    let first = replays[0];
    if first.completed + first.abandoned != jobs {
        errors.push(format!(
            "{label}: {} completed + {} abandoned != {jobs} jobs",
            first.completed, first.abandoned
        ));
    }
    if replays.iter().any(|r| r.digest != first.digest) {
        errors.push(format!("{label}: replay digests differ"));
    }
}

/// Runs `cluster_replay`.
pub fn run(args: &RunArgs) -> Report {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut text = String::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        text = build_trace(TIMED_SEED, JOBS);
        setups.push(t0.elapsed().as_secs_f64());
    }

    let cpu0 = crate::procfs::cpu_s();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let until = Instant::now() + Duration::from_secs_f64(untraced_s);
    let mut walls = Vec::new();
    let mut replays = Vec::new();
    while replays.is_empty() || Instant::now() < until {
        let t0 = Instant::now();
        replays.push(replay(&text, TIMED_SEED));
        walls.push(t0.elapsed().as_secs_f64());
    }
    let mut tracer = Tracer::enabled();
    let traced = args
        .trace
        .then(|| traced_replay(&text, TIMED_SEED, &mut tracer));
    let cpu_s = crate::procfs::cpu_s() - cpu0;

    // Checks: the timed replays agree with each other (and with the
    // windowed replay when traced); the seed's own trace resolves every
    // job, and its windowed replay matches its drained one.
    let mut errors = Vec::new();
    let mut timed: Vec<&Replay> = replays.iter().collect();
    timed.extend(traced.as_ref().map(|(r, _)| r));
    check("timed trace", JOBS, &timed, &mut errors);
    let seed_text = check_trace(args.seed);
    let drained = replay(&seed_text, args.seed);
    let (windowed, _) = traced_replay(&seed_text, args.seed, &mut Tracer::disabled());
    check(
        "seed trace",
        CHECK_JOBS,
        &[&drained, &windowed],
        &mut errors,
    );
    for e in &errors {
        eprintln!("cluster_replay check failed: {e}");
    }
    let mut report = Report::default();
    report.correct = errors.is_empty();
    report.attempted = (replays.len() * JOBS) as u64;
    report.failed = if report.correct { 0 } else { report.attempted };

    let rates: Vec<f64> = walls.iter().map(|w| JOBS as f64 / w).collect();
    report.set("setup_s", median(&setups));
    report.set("throughput_per_s", median(&rates));
    report.set("latency_p50_ms", median(&walls) * 1e3);
    report.set("peak_rss_mb", crate::procfs::peak_rss_mb());

    if let Some((r, windows)) = traced {
        let total = |name: &str| tracer.self_secs(name).iter().sum::<f64>();
        let advance_s = total("cluster.engine.advance");
        report.set("cluster.swf.parse_s", total("cluster.swf.parse"));
        report.set("cluster.engine.inject_s", total("cluster.engine.inject"));
        report.set("cluster.engine.advance_s", advance_s);
        report.set("cluster.engine.events", r.events as f64);
        report.set("cluster.engine.events_per_s", r.events as f64 / advance_s);
        let q = WINDOWS / 4;
        report.set(
            "cluster.engine.events_per_s.first_quarter",
            rate(&windows[..q]),
        );
        report.set(
            "cluster.engine.events_per_s.last_quarter",
            rate(&windows[WINDOWS - q..]),
        );
        report.set(
            "cluster.metrics.summary_s",
            total("cluster.metrics.summary"),
        );
        report.set("cluster.engine.jobs_completed", r.completed as f64);
        report.set("cluster.engine.jobs_abandoned", r.abandoned as f64);
        report.set("cluster.engine.node_failures", r.node_failures as f64);
        report.set(
            "cluster.engine.events_per_job",
            r.events as f64 / JOBS as f64,
        );
        let wall = tracer.durations_secs("bench.cluster.replay")[0];
        report.set("trace.overhead_ratio", wall / median(&walls));
        report.set("trace.coverage", tracer.coverage(wall));
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        report.set_summary("e2e.latency_ms", &summarize(&walls_ms));
    }
    report.set("proc.cpu_s", cpu_s);
    report.tracer = args.trace.then_some(tracer);
    report
}
