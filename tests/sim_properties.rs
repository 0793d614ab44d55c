//! Property tests for the cluster simulator: safety invariants that must
//! hold for every policy on arbitrary (small) job traces.

use proptest::prelude::*;
use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::job::Job;
use rcr_cluster::sched::Policy;
use rcr_cluster::sim::Simulator;
use rcr_cluster::windowed::{WindowedSim, WindowedSpec};

const NODES: usize = 16;

fn job_strategy() -> impl Strategy<Value = Job> {
    (
        0.0f64..500.0,  // submit
        1usize..=NODES, // nodes
        1.0f64..200.0,  // runtime
        1.0f64..=4.0,   // over-estimate factor
    )
        .prop_map(|(submit, nodes, runtime, over)| Job {
            id: 0, // reassigned below
            submit,
            nodes,
            runtime,
            estimate: runtime * over,
        })
}

fn trace_strategy() -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(job_strategy(), 1..40).prop_map(|mut jobs| {
        jobs.sort_by(|a, b| a.submit.partial_cmp(&b.submit).expect("finite"));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i as u64;
        }
        jobs
    })
}

/// Fault regimes from mild to brutal; paired with each recovery policy in
/// the fault properties below.
fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    (
        600.0f64..50_000.0, // node MTBF (s) — down to ten minutes
        10.0f64..2_000.0,   // repair time (s)
        0.0f64..0.3,        // per-attempt software fault probability
        0u8..3,             // recovery policy selector
        any::<u64>(),       // fault RNG seed
    )
        .prop_map(
            |(node_mtbf, repair_time, job_failure_prob, which, seed)| FaultSpec {
                node_mtbf,
                repair_time,
                job_failure_prob,
                recovery: match which {
                    0 => RecoveryPolicy::Resubmit {
                        max_retries: 4,
                        backoff_base: 60.0,
                    },
                    1 => RecoveryPolicy::Checkpoint {
                        interval: 50.0,
                        overhead: 2.0,
                        max_retries: 6,
                    },
                    _ => RecoveryPolicy::Abandon,
                },
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_policy_completes_every_job_exactly_once(trace in trace_strategy()) {
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy).run(trace.clone()).expect("runs");
            prop_assert_eq!(out.completed.len(), trace.len(), "{:?}", policy);
            let mut ids: Vec<u64> = out.completed.iter().map(|c| c.job.id).collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..trace.len() as u64).collect();
            prop_assert_eq!(ids, expect, "{:?}", policy);
        }
    }

    #[test]
    fn starts_respect_submits_and_runtimes(trace in trace_strategy()) {
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy).run(trace.clone()).expect("runs");
            for c in &out.completed {
                prop_assert!(c.start >= c.job.submit - 1e-9, "{:?}: {:?}", policy, c);
                prop_assert!((c.finish - c.start - c.job.runtime).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn node_capacity_never_exceeded(trace in trace_strategy()) {
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy).run(trace.clone()).expect("runs");
            let mut events: Vec<(f64, i64, i64)> = Vec::new(); // (time, order, delta)
            for c in &out.completed {
                // Process releases before acquisitions at equal times.
                events.push((c.finish, 0, -(c.job.nodes as i64)));
                events.push((c.start, 1, c.job.nodes as i64));
            }
            events.sort_by(|a, b| {
                a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1))
            });
            let mut used = 0i64;
            for (_, _, d) in events {
                used += d;
                prop_assert!(used <= NODES as i64, "{:?} overcommitted to {}", policy, used);
                prop_assert!(used >= 0);
            }
        }
    }

    #[test]
    fn fcfs_is_fifo_in_start_order_per_capacity(trace in trace_strategy()) {
        // Under strict FCFS, start times are monotone in submission order.
        let out = Simulator::new(NODES, Policy::Fcfs).run(trace).expect("runs");
        let mut by_id: Vec<&rcr_cluster::job::CompletedJob> = out.completed.iter().collect();
        by_id.sort_by_key(|c| c.job.id);
        for w in by_id.windows(2) {
            prop_assert!(
                w[0].start <= w[1].start + 1e-9,
                "FCFS inversion: job {} at {} vs job {} at {}",
                w[0].job.id, w[0].start, w[1].job.id, w[1].start
            );
        }
    }

    #[test]
    fn faulty_runs_conserve_jobs(trace in trace_strategy(), faults in fault_strategy()) {
        // Every submitted job is resolved exactly once: completed or
        // abandoned, never both, never lost.
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy)
                .with_faults(faults).expect("valid spec")
                .run(trace.clone()).expect("runs");
            prop_assert_eq!(
                out.completed.len() + out.abandoned.len(),
                trace.len(),
                "{:?} under {}", policy, faults.recovery.name()
            );
            let mut ids: Vec<u64> = out.completed.iter().map(|c| c.job.id)
                .chain(out.abandoned.iter().map(|a| a.job.id)).collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..trace.len() as u64).collect();
            prop_assert_eq!(ids, expect, "{:?}", policy);
        }
    }

    #[test]
    fn goodput_plus_badput_fits_in_the_cluster(trace in trace_strategy(), faults in fault_strategy()) {
        // All accounted node-seconds — useful and wasted — must fit inside
        // nodes × (horizon − first submit): the cluster cannot do more work
        // than exists.
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy)
                .with_faults(faults).expect("valid spec")
                .run(trace.clone()).expect("runs");
            let r = out.resilience();
            prop_assert!(r.goodput >= 0.0 && r.badput >= 0.0);
            prop_assert!(r.wasted_fraction >= 0.0 && r.wasted_fraction <= 1.0);
            let t0 = trace.iter().map(|j| j.submit).fold(f64::INFINITY, f64::min);
            let horizon = out.completed.iter().map(|c| c.finish)
                .chain(out.abandoned.iter().map(|a| a.abandoned_at))
                .fold(t0, f64::max);
            let capacity = NODES as f64 * (horizon - t0);
            prop_assert!(
                r.goodput + r.badput <= capacity + 1e-6,
                "{:?}: {} + {} > {}", policy, r.goodput, r.badput, capacity
            );
        }
    }

    #[test]
    fn event_times_stay_monotone_under_failures(trace in trace_strategy(), faults in fault_strategy()) {
        // Per-job timelines must respect causality even when attempts are
        // killed and requeued; the simulator's internal debug assertion on
        // global event order also runs live in this (debug) build.
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy)
                .with_faults(faults).expect("valid spec")
                .run(trace.clone()).expect("runs");
            for c in &out.completed {
                prop_assert!(c.start >= c.job.submit - 1e-9, "{:?}: {:?}", policy, c);
                // `start` is the final attempt's launch, which under
                // checkpointing only runs the remaining work — so only
                // strict ordering is guaranteed, not start + runtime.
                prop_assert!(c.finish > c.start, "{:?}: {:?}", policy, c);
                prop_assert!(c.attempts >= 1);
                prop_assert!(c.wasted_work >= 0.0);
            }
            for a in &out.abandoned {
                prop_assert!(a.abandoned_at >= a.job.submit - 1e-9, "{:?}: {:?}", policy, a);
                prop_assert!(a.attempts >= 1);
                prop_assert!(a.wasted_work >= 0.0);
            }
        }
    }

    #[test]
    fn windowed_replay_is_invariant_to_threads(
        trace in trace_strategy(),
        faults in fault_strategy(),
        window in 50.0f64..500.0,
    ) {
        // The windowed runner's contract: for a fixed window schedule,
        // the thread count is a performance knob only — one and four
        // threads produce bit-identical outcomes, and every submitted job
        // is resolved exactly once.
        let spec = |threads| WindowedSpec {
            nodes_per_shard: NODES,
            shards: 2,
            policy: Policy::EasyBackfill,
            faults,
            window,
            threads,
        };
        let reference = WindowedSim::new(spec(1)).expect("valid spec")
            .run(trace.clone()).expect("runs");
        prop_assert_eq!(
            reference.completed() + reference.abandoned(),
            trace.len(),
            "jobs lost under {}", faults.recovery.name()
        );
        let out = WindowedSim::new(spec(4)).expect("valid spec")
            .run(trace.clone()).expect("runs");
        prop_assert_eq!(reference.digest(), out.digest(), "4 threads diverged");
    }

    #[test]
    fn summaries_are_finite_and_bounded(trace in trace_strategy()) {
        for policy in Policy::ALL {
            let out = Simulator::new(NODES, policy).run(trace.clone()).expect("runs");
            let s = out.try_summary().expect("fault-free runs complete every job");
            prop_assert!(s.mean_wait.is_finite() && s.mean_wait >= 0.0);
            prop_assert!(s.mean_slowdown >= 1.0 - 1e-9);
            prop_assert!(s.utilization > 0.0 && s.utilization <= 1.0 + 1e-9);
            prop_assert!(s.slowdown_fairness > 0.0 && s.slowdown_fairness <= 1.0 + 1e-9);
            prop_assert!(s.median_wait <= s.p90_wait + 1e-9);
        }
    }
}
