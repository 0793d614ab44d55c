//! Trace replay at scale (the E23 machinery as a library user would run
//! it): export a synthetic workload to the Standard Workload Format,
//! stream it back without materializing, and replay it through the
//! windowed-parallel simulator — checking that the thread count never
//! changes a single bit of the outcome.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::sched::Policy;
use rcr_cluster::swf::{stream_jobs, to_swf};
use rcr_cluster::windowed::{WindowedSim, WindowedSpec};
use rcr_cluster::workload::{generate_checked, WorkloadSpec};
use rcr_core::MASTER_SEED;
use rcr_report::fmt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A two-shard federation: jobs are routed to sub-clusters by a hash
    // of their id, so the trace is one flat SWF file.
    let spec = WorkloadSpec {
        n_jobs: 4_000,
        cluster_nodes: 32,
        offered_load: 0.85,
        ..Default::default()
    };
    let jobs = generate_checked(&spec, MASTER_SEED)?;

    // Round-trip through SWF: the text is the canonical scenario.
    let text = to_swf(&jobs);
    println!(
        "SWF export: {} jobs, {} bytes, first line: {:?}",
        jobs.len(),
        text.len(),
        text.lines().find(|l| !l.starts_with(';')).unwrap_or("")
    );

    let faults = FaultSpec {
        node_mtbf: 2.0e6,
        repair_time: 1800.0,
        job_failure_prob: 0.01,
        recovery: RecoveryPolicy::Resubmit {
            max_retries: 4,
            backoff_base: 60.0,
        },
        seed: MASTER_SEED,
    };
    let sim = |threads: usize| {
        WindowedSim::new(WindowedSpec {
            nodes_per_shard: 32,
            shards: 2,
            policy: Policy::EasyBackfill,
            faults,
            window: 20_000.0,
            threads,
        })
    };

    // Replay the SWF text as a stream — no materialized job vector —
    // on one and on four threads.
    let arms = [("1 thread", 1), ("4 threads", 4)];
    let mut reference = None;
    for (label, threads) in arms {
        let t0 = std::time::Instant::now();
        let outcome = sim(threads)?.run_stream(stream_jobs(&text))?;
        let digest = outcome.digest();
        println!(
            "{label:>20}: {} completed, {} events over {} windows in {}, \
             {} — digest {digest:#018x}",
            outcome.completed(),
            outcome.events(),
            outcome.windows,
            fmt::duration_s(t0.elapsed().as_secs_f64()),
            fmt::rate_per_s(outcome.events() as f64 / t0.elapsed().as_secs_f64()),
        );
        // The thread count is a performance knob, never semantics: every
        // arm must produce bit-identical outcomes.
        match reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(r, digest, "{label} diverged"),
        }
    }

    let r = sim(4)?.run_stream(stream_jobs(&text))?.resilience();
    println!(
        "\nfederation resilience: {} done / {} lost, {:.1} node-hours goodput, {} wasted",
        r.completed,
        r.abandoned,
        r.goodput / 3600.0,
        fmt::pct(r.wasted_fraction),
    );
    Ok(())
}
