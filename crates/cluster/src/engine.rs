//! The resumable simulation engine shared by [`crate::sim::Simulator`]
//! (inject everything, drain to completion) and
//! [`crate::windowed::WindowedSim`] (inject lazily, advance in bounded
//! windows).
//!
//! One event loop serves both fault-free and fault-injecting runs: a
//! fault-free run is simply a run under the inert [`FaultSpec::none`]
//! spec, which schedules no fault events and draws no randomness, so
//! the two paths cannot drift apart.
//!
//! # Determinism under lazy injection
//!
//! The engine assigns event sequence numbers in two classes (see
//! [`crate::event::DYN_SEQ_BASE`]): arrivals take class-0 numbers in
//! injection (trace) order, dynamically scheduled events take class-1
//! numbers in push order. Because the pop order of `(time, seq)` keys
//! then never depends on *when* an arrival was pushed — only on its
//! position in the trace — processing a trace window by window via
//! [`Engine::advance_to`] pops exactly the same event sequence as
//! injecting everything up front and calling [`Engine::drain`]. All
//! random draws happen during event processing, so the fault stream is
//! equally window-invariant.

use crate::event::{EventKind, EventQueue, QueueKind, DYN_SEQ_BASE};
use crate::faults::{
    attempt_duration, backoff_penalty, progress_saved, FaultInjector, FaultSpec, RecoveryPolicy,
};
use crate::job::{AbandonedJob, CompletedJob, Job};
use crate::sched::{select, Policy, QueuedJob, RunningJob, RunningSet, WaitQueue};
use crate::sim::Outcome;
use crate::{Error, Result};

/// A resumable discrete-event simulation of one (sub-)cluster.
#[derive(Debug)]
pub struct Engine {
    nodes: usize,
    policy: Policy,
    spec: FaultSpec,
    recovery: RecoveryPolicy,
    inj: FaultInjector,
    events: EventQueue,
    /// Failure clocks are armed lazily at the first advance, after any
    /// window-0 reseed, so the TTF draws come from the right stream.
    armed: bool,
    free: usize,
    queue: WaitQueue,
    running: RunningSet,
    /// Arena of injected jobs; event payloads index into it.
    jobs: Vec<Job>,
    // Per-job mutable state, indexed like `jobs`.
    attempts: Vec<u32>,
    wasted: Vec<f64>,
    remaining: Vec<f64>,
    att_start: Vec<f64>,
    att_work: Vec<f64>,
    node_up: Vec<bool>,
    up: usize,
    completed: Vec<CompletedJob>,
    abandoned: Vec<AbandonedJob>,
    node_failures: usize,
    /// Arrival events processed: every arrived job is queued, running,
    /// or resolved.
    arrived: usize,
    resolved: usize,
    /// Next class-0 (arrival) sequence number.
    arr_seq: u64,
    /// Next class-1 (dynamic) sequence number, below the class bit.
    dyn_seq: u64,
    events_processed: u64,
    last_time: f64,
    /// Largest horizon advanced to (the last event time after a drain);
    /// jobs submitted below it are rejected.
    horizon: f64,
}

impl Engine {
    /// Creates an engine for `nodes` identical nodes under `policy`,
    /// with fault behaviour `spec`. The `queue` argument selects nothing
    /// (the binary heap is the only event queue); it remains only for the
    /// repository benchmark, which passes `QueueKind::default()`.
    ///
    /// # Errors
    /// [`Error::NoNodes`] on an empty cluster, [`Error::InvalidFaultSpec`]
    /// on an out-of-range spec.
    pub fn new(nodes: usize, policy: Policy, spec: FaultSpec, _queue: QueueKind) -> Result<Self> {
        if nodes == 0 {
            return Err(Error::NoNodes);
        }
        let spec = spec.validated()?;
        Ok(Engine {
            nodes,
            policy,
            spec,
            recovery: spec.recovery,
            inj: FaultInjector::new(&spec),
            events: EventQueue::new(),
            armed: false,
            free: nodes,
            queue: WaitQueue::new(),
            running: RunningSet::new(),
            jobs: Vec::new(),
            attempts: Vec::new(),
            wasted: Vec::new(),
            remaining: Vec::new(),
            att_start: Vec::new(),
            att_work: Vec::new(),
            node_up: vec![true; nodes],
            up: nodes,
            completed: Vec::new(),
            abandoned: Vec::new(),
            node_failures: 0,
            arrived: 0,
            resolved: 0,
            arr_seq: 0,
            dyn_seq: 0,
            events_processed: 0,
            last_time: 0.0,
            horizon: f64::NEG_INFINITY,
        })
    }

    /// Injects one job: validates it and schedules its arrival with the
    /// next class-0 sequence number. Jobs may be injected lazily between
    /// [`Engine::advance_to`] calls as long as each job's submit time
    /// lies at or beyond every horizon already advanced past.
    ///
    /// # Errors
    /// [`Error::InvalidJob`] or [`Error::JobTooWide`];
    /// [`Error::UnsortedTrace`] when the submit time lies below the
    /// largest horizon already advanced to (or, after a drain, below the
    /// last processed event), since that event time has already passed.
    pub fn inject(&mut self, job: Job) -> Result<()> {
        if !job.is_valid() {
            return Err(Error::InvalidJob(job.id));
        }
        if job.nodes > self.nodes {
            return Err(Error::JobTooWide {
                job: job.id,
                requested: job.nodes,
                available: self.nodes,
            });
        }
        if job.submit < self.horizon {
            return Err(Error::UnsortedTrace {
                job: job.id,
                submit: job.submit,
                prev: self.horizon,
            });
        }
        let idx = self.jobs.len();
        self.jobs.push(job);
        self.attempts.push(0);
        self.wasted.push(0.0);
        self.remaining.push(job.runtime);
        self.att_start.push(f64::NAN);
        self.att_work.push(0.0);
        let seq = self.arr_seq;
        self.arr_seq += 1;
        debug_assert!(seq < DYN_SEQ_BASE);
        self.events
            .push_at(job.submit, seq, EventKind::Arrival { job: idx });
        Ok(())
    }

    /// Replaces the fault-stream PRNG (see [`FaultInjector::reseed`]).
    /// The windowed runner calls this at every window barrier.
    pub fn reseed(&mut self, seed: u64) {
        self.inj.reseed(seed);
    }

    /// Arms every node's first failure clock on the first advance.
    fn arm(&mut self) {
        if self.armed {
            return;
        }
        self.armed = true;
        for node in 0..self.nodes {
            let ttf = self.inj.time_to_failure();
            if ttf.is_finite() {
                self.push_dyn(ttf, EventKind::NodeFailure { node });
            }
        }
    }

    /// Schedules a dynamic (class-1) event.
    fn push_dyn(&mut self, time: f64, kind: EventKind) {
        let seq = DYN_SEQ_BASE | self.dyn_seq;
        self.dyn_seq += 1;
        self.events.push_at(time, seq, kind);
    }

    /// Processes every pending event with time strictly below `horizon`
    /// (including events those events schedule). An infinite horizon is
    /// equivalent to [`Engine::drain`]: node-failure processes regenerate
    /// forever, so an unbounded advance stops once every injected job is
    /// resolved.
    pub fn advance_to(&mut self, horizon: f64) {
        self.arm();
        if horizon.is_infinite() {
            self.drain();
            return;
        }
        self.horizon = self.horizon.max(horizon);
        while let Some(ev) = self.events.pop_before(horizon) {
            self.step(ev.time, ev.kind);
        }
    }

    /// Processes events in order until every injected job is resolved
    /// (completed or abandoned). Pending node-failure/repair events past
    /// the final resolution are left unprocessed, exactly as a
    /// non-resumable run would.
    pub fn drain(&mut self) {
        self.arm();
        while self.resolved < self.jobs.len() {
            let Some(ev) = self.events.pop() else {
                debug_assert!(false, "event queue drained with unresolved jobs");
                break;
            };
            self.step(ev.time, ev.kind);
        }
        self.horizon = self.horizon.max(self.last_time);
    }

    /// Jobs injected so far.
    pub fn submitted(&self) -> usize {
        self.jobs.len()
    }

    /// Jobs resolved (completed or abandoned) so far.
    pub fn resolved(&self) -> usize {
        self.resolved
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Consumes the engine into its [`Outcome`].
    pub fn into_outcome(self) -> Outcome {
        Outcome {
            completed: self.completed,
            abandoned: self.abandoned,
            node_failures: self.node_failures,
            nodes: self.nodes,
            policy: self.policy,
            events: self.events_processed,
        }
    }

    /// Handles one event, then lets the policy start whatever it can. Debug
    /// builds check the engine's conservation laws afterwards.
    fn step(&mut self, now: f64, kind: EventKind) {
        if self.apply(now, kind) {
            self.schedule(now);
        }
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
    }

    /// Applies one event to the cluster state. Returns whether anything
    /// changed, i.e. whether a scheduling pass is due.
    fn apply(&mut self, now: f64, kind: EventKind) -> bool {
        debug_assert!(now >= self.last_time, "event time went backwards");
        self.last_time = now;
        self.events_processed += 1;
        match kind {
            EventKind::Arrival { job } => {
                self.arrived += 1;
                self.queue.insert(QueuedJob {
                    job_idx: job,
                    nodes: self.jobs[job].nodes,
                    estimate: self.jobs[job].estimate,
                    priority: self.jobs[job].submit,
                });
            }
            EventKind::Finish { job, attempt } => {
                // Stale finishes (the attempt was killed) are ignored —
                // without a scheduling pass, since nothing changed.
                if self.attempts[job] != attempt {
                    return false;
                }
                let Some(pos) = self.running.position(job) else {
                    return false;
                };
                let r = self.running.swap_remove(pos);
                self.free += r.nodes;
                // Checkpoint overhead paid in the successful attempt is
                // wall time beyond the useful work — it counts as waste.
                // (Computed from the model, not from event-time
                // subtraction, which carries rounding residue.)
                let overhead_paid =
                    attempt_duration(self.att_work[job], &self.recovery) - self.att_work[job];
                self.wasted[job] += r.nodes as f64 * overhead_paid;
                self.completed.push(CompletedJob {
                    job: self.jobs[job],
                    start: self.att_start[job],
                    finish: now,
                    attempts: attempt,
                    wasted_work: self.wasted[job],
                });
                self.resolved += 1;
            }
            EventKind::NodeFailure { node } => {
                debug_assert!(self.node_up[node], "failure of an already-down node");
                self.node_failures += 1;
                self.node_up[node] = false;
                self.push_dyn(now + self.spec.repair_time, EventKind::NodeRepair { node });
                let busy = self.up - self.free;
                if self.inj.failure_hits_busy(busy, self.up) {
                    let weights: Vec<usize> =
                        self.running.as_slice().iter().map(|r| r.nodes).collect();
                    let victim = self.inj.pick_victim(&weights);
                    let r = self.running.remove(victim);
                    // The victim's nodes come back idle, minus the one
                    // that just died.
                    self.free += r.nodes - 1;
                    self.kill(r.job_idx, now);
                } else {
                    // An idle node went down.
                    debug_assert!(self.free > 0);
                    self.free -= 1;
                }
                self.up -= 1;
            }
            EventKind::NodeRepair { node } => {
                debug_assert!(!self.node_up[node], "repair of an up node");
                self.node_up[node] = true;
                self.up += 1;
                self.free += 1;
                let ttf = self.inj.time_to_failure();
                if ttf.is_finite() {
                    self.push_dyn(now + ttf, EventKind::NodeFailure { node });
                }
            }
            EventKind::JobFault { job, attempt } => {
                // Stale faults (attempt already finished or was killed by
                // a node failure) are ignored — again with no scheduling
                // pass, since cluster state did not change.
                if self.attempts[job] != attempt {
                    return false;
                }
                let Some(pos) = self.running.position(job) else {
                    return false;
                };
                let r = self.running.remove(pos);
                self.free += r.nodes;
                self.kill(job, now);
            }
        }
        true
    }

    /// Every arrived job is queued, running, or resolved; every up node is
    /// free or held by a running job; the queue's block summaries and the
    /// running set's finish index and position map agree with their
    /// contents.
    fn check_invariants(&self) {
        assert_eq!(
            self.arrived,
            self.resolved + self.queue.len() + self.running.len(),
            "arrived jobs are queued, running, or resolved"
        );
        self.running.check();
        assert_eq!(
            self.free + self.running.held(),
            self.up,
            "up nodes are free or held"
        );
        self.queue.check();
    }

    /// Kills the (running) job's current attempt at `now`: accounts the
    /// lost work, then either requeues under the recovery policy or
    /// abandons. The caller has already removed the job from `running`
    /// and returned its nodes to `free`.
    fn kill(&mut self, job: usize, now: f64) {
        let j = &self.jobs[job];
        let elapsed = now - self.att_start[job];
        let saved = progress_saved(elapsed, self.att_work[job], &self.recovery);
        self.remaining[job] = self.att_work[job] - saved;
        self.wasted[job] += j.nodes as f64 * (elapsed - saved);
        let k = self.attempts[job];
        let retry_allowed = match self.recovery.max_retries() {
            Some(max) => k <= max,
            None => false,
        };
        if retry_allowed {
            let backoff = match self.recovery {
                RecoveryPolicy::Resubmit { backoff_base, .. } => backoff_penalty(backoff_base, k),
                _ => 0.0,
            };
            // Scale the user's over-estimate factor onto the remaining
            // work, never below the actual wall time of the retry.
            let scale = j.estimate / j.runtime;
            let estimate = (self.remaining[job] * scale)
                .max(attempt_duration(self.remaining[job], &self.recovery));
            self.queue.insert(QueuedJob {
                job_idx: job,
                nodes: j.nodes,
                estimate,
                priority: now + backoff,
            });
        } else {
            self.abandoned.push(AbandonedJob {
                job: *j,
                attempts: k,
                wasted_work: self.wasted[job],
                abandoned_at: now,
            });
            self.resolved += 1;
        }
    }

    /// Lets the policy start whatever it can after any state change.
    fn schedule(&mut self, now: f64) {
        let starts = select(self.policy, &self.queue, &self.running, self.free, now);
        debug_assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "policies return sorted unique positions"
        );
        // Back to front, so the positions still to remove stay valid.
        for &pos in starts.iter().rev() {
            let qj = self.queue.remove(pos);
            let job = qj.job_idx;
            debug_assert!(qj.nodes <= self.free, "policy over-committed nodes");
            self.free -= qj.nodes;
            self.attempts[job] += 1;
            let attempt = self.attempts[job];
            let work = self.remaining[job];
            let duration = attempt_duration(work, &self.recovery);
            self.att_start[job] = now;
            self.att_work[job] = work;
            self.running.push(RunningJob {
                job_idx: job,
                nodes: qj.nodes,
                expected_finish: now + qj.estimate,
            });
            self.push_dyn(now + duration, EventKind::Finish { job, attempt });
            if let Some(frac) = self.inj.attempt_fault(self.spec.job_failure_prob) {
                self.push_dyn(now + frac * duration, EventKind::JobFault { job, attempt });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadSpec};

    fn jobs(n: usize, seed: u64) -> Vec<Job> {
        generate(
            &WorkloadSpec {
                n_jobs: n,
                ..Default::default()
            },
            seed,
        )
    }

    fn engine(nodes: usize, policy: Policy, spec: FaultSpec) -> Result<Engine> {
        Engine::new(nodes, policy, spec, QueueKind::Heap)
    }

    fn run_all_upfront(trace: &[Job]) -> Outcome {
        let mut eng = engine(64, Policy::EasyBackfill, FaultSpec::none(7)).unwrap();
        for j in trace {
            eng.inject(*j).unwrap();
        }
        eng.drain();
        eng.into_outcome()
    }

    #[test]
    fn windowed_advance_equals_upfront_drain() {
        // The determinism claim of the module docs, directly: lazy
        // injection + bounded advances ≡ inject-everything + drain,
        // bitwise.
        let trace = jobs(250, 31);
        let all = run_all_upfront(&trace);
        let mut eng = engine(64, Policy::EasyBackfill, FaultSpec::none(7)).unwrap();
        let window = 5_000.0;
        let mut next = 0usize;
        let mut w = 0u64;
        while next < trace.len() {
            let horizon = (w + 1) as f64 * window;
            while next < trace.len() && trace[next].submit < horizon {
                eng.inject(trace[next]).unwrap();
                next += 1;
            }
            eng.advance_to(horizon);
            w += 1;
        }
        eng.drain();
        assert_eq!(eng.into_outcome(), all);
    }

    #[test]
    fn inject_rejects_jobs_below_the_advanced_horizon() {
        let job = |id: u64, submit: f64| Job {
            id,
            submit,
            nodes: 1,
            runtime: 10.0,
            estimate: 10.0,
        };
        let mut eng = engine(4, Policy::Fcfs, FaultSpec::none(0)).unwrap();
        eng.inject(job(1, 0.0)).unwrap();
        eng.advance_to(100.0);
        assert_eq!(
            eng.inject(job(2, 5.0)).unwrap_err(),
            Error::UnsortedTrace {
                job: 2,
                submit: 5.0,
                prev: 100.0,
            }
        );
        // At the horizon is still in the future.
        eng.inject(job(3, 100.0)).unwrap();
        eng.drain();
        // After a drain the horizon is the last processed event: job 3
        // finished at t = 110.
        assert!(matches!(
            eng.inject(job(4, 105.0)).unwrap_err(),
            Error::UnsortedTrace { job: 4, prev, .. } if prev == 110.0
        ));
        eng.inject(job(5, 110.0)).unwrap();
        eng.drain();
        let out = eng.into_outcome();
        let ids: Vec<u64> = out.completed.iter().map(|c| c.job.id).collect();
        assert_eq!(ids, vec![1, 3, 5], "rejected jobs never ran");
        assert!(out.completed.iter().all(|c| c.start >= c.job.submit));
    }

    #[test]
    fn events_are_counted_and_reported() {
        let trace = jobs(50, 3);
        let out = run_all_upfront(&trace);
        // At least one arrival and one finish per job.
        assert!(out.events >= 2 * trace.len() as u64);
        assert_eq!(out.completed.len(), trace.len());
    }

    #[test]
    fn engine_rejects_bad_configs() {
        assert_eq!(
            engine(0, Policy::Fcfs, FaultSpec::none(0)).unwrap_err(),
            Error::NoNodes
        );
        let mut eng = engine(4, Policy::Fcfs, FaultSpec::none(0)).unwrap();
        let wide = Job {
            id: 9,
            submit: 0.0,
            nodes: 8,
            runtime: 10.0,
            estimate: 10.0,
        };
        assert!(matches!(
            eng.inject(wide).unwrap_err(),
            Error::JobTooWide { job: 9, .. }
        ));
        let bad = Job {
            id: 3,
            submit: -1.0,
            nodes: 1,
            runtime: 10.0,
            estimate: 10.0,
        };
        assert_eq!(eng.inject(bad).unwrap_err(), Error::InvalidJob(3));
    }

    #[test]
    fn reseed_before_first_advance_selects_the_stream() {
        // Two engines with different spec seeds but the same reseed
        // converge: the reseed fully determines the fault stream when it
        // lands before arming.
        let trace = jobs(80, 5);
        let spec_a = FaultSpec {
            node_mtbf: 20_000.0,
            repair_time: 600.0,
            job_failure_prob: 0.02,
            recovery: RecoveryPolicy::Resubmit {
                max_retries: 4,
                backoff_base: 30.0,
            },
            seed: 1,
        };
        let spec_b = FaultSpec { seed: 2, ..spec_a };
        let run = |spec: FaultSpec| {
            let mut eng = engine(64, Policy::Fcfs, spec).unwrap();
            eng.reseed(0xABCD);
            for j in &trace {
                eng.inject(*j).unwrap();
            }
            eng.drain();
            eng.into_outcome()
        };
        assert_eq!(run(spec_a), run(spec_b));
    }
}
