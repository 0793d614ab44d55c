//! The simulation front end: configuration, validation, and the
//! [`Outcome`] record — with optional fault injection and recovery.
//!
//! The event loop itself lives in [`crate::engine::Engine`]; a
//! `Simulator::run` injects the whole trace up front and drains the
//! engine to completion. [`crate::windowed::WindowedSim`] drives the
//! same engine lazily, window by window, across sharded sub-clusters.

use crate::engine::Engine;
use crate::event::QueueKind;
use crate::faults::FaultSpec;
use crate::job::{AbandonedJob, CompletedJob, Job};
use crate::metrics::{resilience_summary, summarize, try_summarize, ResilienceSummary, Summary};
use crate::sched::Policy;
use crate::{Error, Result};

/// Result of a finished simulation: the completed-job trace plus the
/// cluster size needed to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-job completion records, in completion order.
    pub completed: Vec<CompletedJob>,
    /// Jobs the recovery policy gave up on (always empty without fault
    /// injection).
    pub abandoned: Vec<AbandonedJob>,
    /// Node failures injected during the run.
    pub node_failures: usize,
    /// Number of nodes the cluster had.
    pub nodes: usize,
    /// Policy that produced this outcome.
    pub policy: Policy,
    /// Events the engine processed to produce this outcome — identical
    /// across window schedules and thread counts by construction, and
    /// the numerator of the E23 events/sec metric.
    pub events: u64,
}

impl Outcome {
    /// Aggregate statistics, or `None` when no job completed — which is
    /// reachable under fault injection (every job abandoned).
    pub fn try_summary(&self) -> Option<Summary> {
        try_summarize(&self.completed, self.nodes)
    }

    /// Aggregate statistics.
    ///
    /// # Panics
    /// Panics if the simulation completed no jobs. Fault-free runs of valid
    /// non-empty traces always complete every job; with fault injection
    /// prefer [`Outcome::try_summary`].
    pub fn summary(&self) -> Summary {
        summarize(&self.completed, self.nodes)
    }

    /// Resilience metrics (goodput, badput, retries, abandonment). Defined
    /// for every outcome, including empty and all-abandoned ones.
    pub fn resilience(&self) -> ResilienceSummary {
        resilience_summary(&self.completed, &self.abandoned, self.node_failures)
    }

    /// Order-sensitive FNV-1a checksum over every field of the outcome.
    /// Two runs are bit-for-bit identical iff their digests match, which
    /// is how E23 verifies the windowed-parallel arm against the serial
    /// baseline before timing anything.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.push(self.completed.len() as u64);
        for c in &self.completed {
            h.push(c.job.id);
            h.push(c.job.submit.to_bits());
            h.push(c.job.nodes as u64);
            h.push(c.job.runtime.to_bits());
            h.push(c.job.estimate.to_bits());
            h.push(c.start.to_bits());
            h.push(c.finish.to_bits());
            h.push(u64::from(c.attempts));
            h.push(c.wasted_work.to_bits());
        }
        h.push(self.abandoned.len() as u64);
        for a in &self.abandoned {
            h.push(a.job.id);
            h.push(u64::from(a.attempts));
            h.push(a.wasted_work.to_bits());
            h.push(a.abandoned_at.to_bits());
        }
        h.push(self.node_failures as u64);
        h.push(self.nodes as u64);
        h.push(self.events);
        h.finish()
    }
}

/// Incremental FNV-1a over u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A space-shared cluster simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    nodes: usize,
    policy: Policy,
    faults: Option<FaultSpec>,
}

impl Simulator {
    /// Creates a simulator for a cluster with `nodes` identical nodes under
    /// the given policy. No faults are injected; every run is equivalent to
    /// perfectly reliable hardware.
    pub fn new(nodes: usize, policy: Policy) -> Self {
        Simulator {
            nodes,
            policy,
            faults: None,
        }
    }

    /// Enables fault injection under `spec`, validating it first.
    ///
    /// # Errors
    /// [`Error::InvalidFaultSpec`] when any parameter is out of range (zero
    /// MTBF, negative repair time, retry limit of 0, ...).
    pub fn with_faults(mut self, spec: FaultSpec) -> Result<Self> {
        self.faults = Some(spec.validated()?);
        Ok(self)
    }

    /// Runs the trace to completion and returns per-job records.
    ///
    /// With no fault spec the engine runs under the inert
    /// [`FaultSpec::none`]: no fault events are scheduled, no random
    /// draws are made, and the outcome is identical to perfectly
    /// reliable hardware.
    ///
    /// # Errors
    /// [`Error::NoNodes`], [`Error::InvalidJob`], or [`Error::JobTooWide`]
    /// when the configuration cannot be simulated.
    pub fn run(&self, jobs: Vec<Job>) -> Result<Outcome> {
        if self.nodes == 0 {
            return Err(Error::NoNodes);
        }
        for j in &jobs {
            if !j.is_valid() {
                return Err(Error::InvalidJob(j.id));
            }
            if j.nodes > self.nodes {
                return Err(Error::JobTooWide {
                    job: j.id,
                    requested: j.nodes,
                    available: self.nodes,
                });
            }
        }
        let spec = self.faults.unwrap_or(FaultSpec::none(0));
        let mut engine = Engine::new(self.nodes, self.policy, spec, QueueKind::Heap)?;
        for job in jobs {
            engine.inject(job)?;
        }
        engine.drain();
        Ok(engine.into_outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecoveryPolicy;
    use crate::workload::{generate, WorkloadSpec};

    fn job(id: u64, submit: f64, nodes: usize, runtime: f64, estimate: f64) -> Job {
        Job {
            id,
            submit,
            nodes,
            runtime,
            estimate,
        }
    }

    fn resubmit(max_retries: u32) -> RecoveryPolicy {
        RecoveryPolicy::Resubmit {
            max_retries,
            backoff_base: 0.0,
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let out = Simulator::new(4, Policy::Fcfs)
            .run(vec![job(0, 10.0, 2, 100.0, 100.0)])
            .unwrap();
        assert_eq!(out.completed.len(), 1);
        let c = &out.completed[0];
        assert_eq!(c.start, 10.0);
        assert_eq!(c.finish, 110.0);
        assert_eq!(c.wait(), 0.0);
        assert_eq!(c.attempts, 1);
        assert_eq!(c.wasted_work, 0.0);
    }

    #[test]
    fn fcfs_serializes_on_contention() {
        // 4-node cluster; two 3-node jobs must run back-to-back.
        let out = Simulator::new(4, Policy::Fcfs)
            .run(vec![
                job(0, 0.0, 3, 100.0, 100.0),
                job(1, 1.0, 3, 100.0, 100.0),
            ])
            .unwrap();
        let c1 = out
            .completed
            .iter()
            .find(|c| c.job.id == 1)
            .expect("job 1 completed");
        assert_eq!(c1.start, 100.0);
        assert_eq!(c1.wait(), 99.0);
    }

    #[test]
    fn backfill_lets_small_job_jump_without_delaying_head() {
        // 4 nodes. J0 holds 3 until t=100 (estimate 100), leaving 1 free.
        // J1 (4 nodes) blocks at the head; J2 (1 node, 50 s) arrives later.
        // FCFS: J2 waits behind J1. EASY: J2 backfills onto the free node
        // immediately — it finishes by J1's shadow time (t=100).
        let trace = vec![
            job(0, 0.0, 3, 100.0, 100.0),
            job(1, 1.0, 4, 100.0, 100.0),
            job(2, 2.0, 1, 50.0, 50.0),
        ];
        let fcfs = Simulator::new(4, Policy::Fcfs).run(trace.clone()).unwrap();
        let easy = Simulator::new(4, Policy::EasyBackfill).run(trace).unwrap();
        let wait_of = |o: &Outcome, id: u64| {
            o.completed
                .iter()
                .find(|c| c.job.id == id)
                .expect("completed")
                .wait()
        };
        assert_eq!(wait_of(&fcfs, 2), 198.0); // starts at t=200 under FCFS
        assert!(
            wait_of(&easy, 2) < 1.0,
            "EASY should backfill J2 at arrival"
        );
        // And the head job J1 is NOT delayed by the backfill.
        assert_eq!(wait_of(&fcfs, 1), 99.0);
        assert_eq!(wait_of(&easy, 1), 99.0);
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 300,
                ..Default::default()
            },
            99,
        );
        for policy in Policy::ALL {
            let out = Simulator::new(64, policy).run(jobs.clone()).unwrap();
            assert_eq!(out.completed.len(), 300, "{policy:?}");
            for c in &out.completed {
                assert!(c.start >= c.job.submit, "{policy:?}: started before submit");
                assert!((c.finish - c.start - c.job.runtime).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn node_capacity_never_exceeded() {
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 400,
                ..Default::default()
            },
            5,
        );
        let out = Simulator::new(64, Policy::EasyBackfill).run(jobs).unwrap();
        // Reconstruct concurrent usage from the trace at every start point.
        let mut points: Vec<(f64, i64)> = Vec::new();
        for c in &out.completed {
            points.push((c.start, c.job.nodes as i64));
            points.push((c.finish, -(c.job.nodes as i64)));
        }
        points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        let mut used = 0i64;
        for (_, d) in points {
            used += d;
            assert!(used <= 64, "overcommitted: {used}");
            assert!(used >= 0);
        }
    }

    #[test]
    fn backfill_improves_mean_wait_on_contended_workload() {
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 800,
                offered_load: 0.9,
                ..Default::default()
            },
            7,
        );
        let fcfs = Simulator::new(64, Policy::Fcfs)
            .run(jobs.clone())
            .unwrap()
            .try_summary()
            .expect("jobs completed");
        let easy = Simulator::new(64, Policy::EasyBackfill)
            .run(jobs)
            .unwrap()
            .try_summary()
            .expect("jobs completed");
        assert!(
            easy.mean_wait < fcfs.mean_wait,
            "EASY {:.0}s should beat FCFS {:.0}s",
            easy.mean_wait,
            fcfs.mean_wait
        );
    }

    #[test]
    fn config_errors() {
        assert_eq!(
            Simulator::new(0, Policy::Fcfs).run(vec![]).unwrap_err(),
            Error::NoNodes
        );
        let wide = job(7, 0.0, 128, 10.0, 10.0);
        assert!(matches!(
            Simulator::new(64, Policy::Fcfs)
                .run(vec![wide])
                .unwrap_err(),
            Error::JobTooWide { job: 7, .. }
        ));
        let bad = job(3, 0.0, 1, -5.0, 10.0);
        assert_eq!(
            Simulator::new(64, Policy::Fcfs).run(vec![bad]).unwrap_err(),
            Error::InvalidJob(3)
        );
    }

    #[test]
    fn invalid_fault_specs_are_rejected() {
        let base = FaultSpec::none(1);
        assert!(matches!(
            Simulator::new(4, Policy::Fcfs)
                .with_faults(FaultSpec {
                    node_mtbf: 0.0,
                    ..base
                })
                .unwrap_err(),
            Error::InvalidFaultSpec(_)
        ));
        assert!(Simulator::new(4, Policy::Fcfs)
            .with_faults(FaultSpec {
                repair_time: -3.0,
                ..base
            })
            .is_err());
        assert!(Simulator::new(4, Policy::Fcfs)
            .with_faults(FaultSpec {
                recovery: RecoveryPolicy::Resubmit {
                    max_retries: 0,
                    backoff_base: 0.0
                },
                ..base
            })
            .is_err());
    }

    #[test]
    fn deterministic_outcomes() {
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 200,
                ..Default::default()
            },
            21,
        );
        let a = Simulator::new(64, Policy::Sjf).run(jobs.clone()).unwrap();
        let b = Simulator::new(64, Policy::Sjf).run(jobs).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_separates_different_outcomes() {
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 120,
                ..Default::default()
            },
            2,
        );
        let fcfs = Simulator::new(64, Policy::Fcfs).run(jobs.clone()).unwrap();
        let easy = Simulator::new(64, Policy::EasyBackfill).run(jobs).unwrap();
        assert_ne!(fcfs.digest(), easy.digest());
    }

    #[test]
    fn empty_trace_is_fine() {
        let out = Simulator::new(8, Policy::Fcfs).run(vec![]).unwrap();
        assert!(out.completed.is_empty());
        assert_eq!(out.try_summary(), None);
        let r = out.resilience();
        assert_eq!(r.completed + r.abandoned, 0);
        assert_eq!(out.events, 0);
    }

    #[test]
    fn inert_fault_spec_reproduces_fault_free_run_exactly() {
        // The zero-failure acceptance check: an inert FaultSpec must not
        // perturb the simulation in any way.
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 300,
                ..Default::default()
            },
            11,
        );
        for policy in Policy::ALL {
            let plain = Simulator::new(64, policy).run(jobs.clone()).unwrap();
            let faulty = Simulator::new(64, policy)
                .with_faults(FaultSpec::none(0xC0FFEE))
                .unwrap()
                .run(jobs.clone())
                .unwrap();
            assert_eq!(plain, faulty, "{policy:?}");
        }
    }

    #[test]
    fn job_fault_triggers_resubmit_and_waste_accounting() {
        // Single job, job_failure_prob = 1: every attempt faults until the
        // retry budget is spent... except retries also always fault, so the
        // job is eventually abandoned with max_retries + 1 attempts.
        let spec = FaultSpec {
            node_mtbf: f64::INFINITY,
            repair_time: 0.0,
            job_failure_prob: 1.0,
            recovery: resubmit(3),
            seed: 42,
        };
        let out = Simulator::new(4, Policy::Fcfs)
            .with_faults(spec)
            .unwrap()
            .run(vec![job(0, 0.0, 2, 100.0, 100.0)])
            .unwrap();
        assert!(out.completed.is_empty());
        assert_eq!(out.abandoned.len(), 1);
        let a = &out.abandoned[0];
        assert_eq!(a.attempts, 4, "1 initial + 3 retries");
        assert!(a.wasted_work > 0.0, "every attempt burned node-seconds");
        assert_eq!(out.try_summary(), None, "nothing completed");
        let r = out.resilience();
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.goodput, 0.0);
        assert_eq!(r.wasted_fraction, 1.0);
        assert_eq!(r.total_retries, 3);
    }

    #[test]
    fn abandon_policy_gives_up_at_first_kill() {
        let spec = FaultSpec {
            node_mtbf: f64::INFINITY,
            repair_time: 0.0,
            job_failure_prob: 1.0,
            recovery: RecoveryPolicy::Abandon,
            seed: 9,
        };
        let out = Simulator::new(4, Policy::Fcfs)
            .with_faults(spec)
            .unwrap()
            .run(vec![
                job(0, 0.0, 2, 100.0, 100.0),
                job(1, 0.0, 2, 50.0, 50.0),
            ])
            .unwrap();
        assert!(out.completed.is_empty());
        assert_eq!(out.abandoned.len(), 2);
        assert!(out.abandoned.iter().all(|a| a.attempts == 1));
    }

    #[test]
    fn checkpointing_bounds_lost_work() {
        // One job, 1000 s, checkpoint every 100 s (no overhead to keep the
        // arithmetic exact). A guaranteed software fault kills each attempt
        // partway, but every retry resumes from the last checkpoint, so the
        // job finishes despite 100% per-attempt fault probability being
        // re-rolled each launch... the fault fraction is random, but with
        // enough retries progress is monotone as long as attempts pass
        // checkpoints. Use a generous retry budget.
        let spec = FaultSpec {
            node_mtbf: f64::INFINITY,
            repair_time: 0.0,
            job_failure_prob: 0.9,
            recovery: RecoveryPolicy::Checkpoint {
                interval: 100.0,
                overhead: 0.0,
                max_retries: 200,
            },
            seed: 3,
        };
        let out = Simulator::new(4, Policy::Fcfs)
            .with_faults(spec)
            .unwrap()
            .run(vec![job(0, 0.0, 2, 1000.0, 1000.0)])
            .unwrap();
        assert_eq!(out.completed.len(), 1);
        let c = &out.completed[0];
        assert!(c.attempts > 1, "the 90% fault rate should have struck");
        assert!(c.wasted_work > 0.0);
        // Goodput counts the useful kiloseconds exactly once.
        let r = out.resilience();
        assert_eq!(r.goodput, 2000.0);
        assert!(r.badput > 0.0);
        assert!(r.wasted_fraction < 1.0);
    }

    #[test]
    fn checkpoint_overhead_is_charged_as_waste_without_failures() {
        // No faults strike, but the checkpoint tax is still paid: 1000 s of
        // work, τ=100 s, 10 s overhead -> 10 checkpoints -> 1100 s wall and
        // 2 nodes × 100 s = 200 node-seconds of waste.
        let spec = FaultSpec {
            node_mtbf: f64::INFINITY,
            repair_time: 0.0,
            job_failure_prob: 0.0,
            recovery: RecoveryPolicy::Checkpoint {
                interval: 100.0,
                overhead: 10.0,
                max_retries: 3,
            },
            seed: 1,
        };
        let out = Simulator::new(4, Policy::Fcfs)
            .with_faults(spec)
            .unwrap()
            .run(vec![job(0, 0.0, 2, 1000.0, 1000.0)])
            .unwrap();
        let c = &out.completed[0];
        assert_eq!(c.attempts, 1);
        assert_eq!(c.finish, 1100.0);
        assert!((c.wasted_work - 200.0).abs() < 1e-9);
    }

    #[test]
    fn node_failures_kill_and_recover_jobs() {
        // Short MTBF on a busy machine: failures must strike, jobs must
        // still resolve, and the books must balance.
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 120,
                ..Default::default()
            },
            17,
        );
        let n = jobs.len();
        let spec = FaultSpec {
            node_mtbf: 20_000.0,
            repair_time: 600.0,
            job_failure_prob: 0.0,
            recovery: resubmit(8),
            seed: 0xC0FFEE,
        };
        let out = Simulator::new(64, Policy::EasyBackfill)
            .with_faults(spec)
            .unwrap()
            .run(jobs)
            .unwrap();
        assert!(out.node_failures > 0, "MTBF is short; failures must occur");
        assert_eq!(out.completed.len() + out.abandoned.len(), n, "conservation");
        let r = out.resilience();
        assert!(
            r.total_retries > 0,
            "some job must have been hit and retried"
        );
        assert!(r.badput > 0.0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let jobs = generate(
            &WorkloadSpec {
                n_jobs: 150,
                ..Default::default()
            },
            13,
        );
        let spec = FaultSpec {
            node_mtbf: 30_000.0,
            repair_time: 300.0,
            job_failure_prob: 0.05,
            recovery: RecoveryPolicy::Checkpoint {
                interval: 300.0,
                overhead: 15.0,
                max_retries: 5,
            },
            seed: 0xC0FFEE,
        };
        let run = || {
            Simulator::new(64, Policy::EasyBackfill)
                .with_faults(spec)
                .unwrap()
                .run(jobs.clone())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.node_failures > 0);
    }

    #[test]
    fn backoff_pushes_retries_behind_waiting_jobs() {
        // 2 nodes. J0 (2 nodes) always faults; its retry backoff of 1000 s
        // must let J1 (submitted later) start first even under FCFS.
        let spec = FaultSpec {
            node_mtbf: f64::INFINITY,
            repair_time: 0.0,
            job_failure_prob: 1.0,
            recovery: RecoveryPolicy::Resubmit {
                max_retries: 2,
                backoff_base: 1000.0,
            },
            seed: 5,
        };
        let out = Simulator::new(2, Policy::Fcfs)
            .with_faults(spec)
            .unwrap()
            .run(vec![
                job(0, 0.0, 2, 100.0, 100.0),
                job(1, 10.0, 2, 50.0, 50.0),
            ])
            .unwrap();
        // J1 never faults? No — fault probability is 1 for every attempt,
        // so both jobs are eventually abandoned; but J1's first attempt must
        // have started before J0's first retry (which carries the backoff).
        let a1 = out
            .abandoned
            .iter()
            .find(|a| a.job.id == 1)
            .expect("J1 resolved");
        assert_eq!(a1.attempts, 3, "J1 got its full retry budget");
    }
}
