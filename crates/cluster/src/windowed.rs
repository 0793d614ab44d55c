//! Conservative time-windowed parallel simulation of sharded clusters.
//!
//! The serial simulator in [`crate::sim`] is exact but single-threaded;
//! this module scales it out while keeping outcomes **bit-for-bit
//! identical across thread counts** (test-enforced, the same discipline
//! as the scheduler/SIMD/columnar tiers). The model is a federation of
//! [`WindowedSpec::shards`] independent sub-clusters: every job is routed
//! to one shard by a deterministic hash of its id ([`shard_of`]), and
//! each shard runs its own [`crate::engine::Engine`].
//!
//! # Window barrier protocol
//!
//! Simulated time is cut into fixed windows of [`WindowedSpec::window`]
//! seconds. Per window `w`, the driver:
//!
//! 1. **injects** every remaining trace job with `submit` strictly below
//!    the window's horizon into its home shard (the trace must be sorted
//!    by submit time — enforced, see [`crate::Error::UnsortedTrace`]);
//! 2. **reseeds** each shard's fault stream to
//!    [`window_stream_seed`]`(seed, shard, w)`, so the randomness each
//!    shard consumes is a pure function of `(seed, shard, window)` —
//!    independent of thread count, scheduling order, and whatever other
//!    shards did;
//! 3. **advances** every shard to the horizon, in parallel on the
//!    `rcr-kernels` work-stealing pool (each shard is one task, touched
//!    by exactly one worker per window);
//! 4. **barriers**: no shard starts window `w + 1` before all finish `w`.
//!
//! Once the trace is exhausted, the final window drains every shard to
//! completion. Shards never exchange events, so conservative windowing
//! is exact rather than approximate: the merged outcome equals running
//! each shard serially, which is what the fallback tests pin down.
//!
//! # Determinism argument
//!
//! Within a shard, the engine is deterministic given its event sequence
//! and fault stream. The event sequence is window-invariant by the
//! two-class sequence discipline (see [`crate::engine`]); the fault
//! stream is fixed by step 2 above. Across shards there is no shared
//! mutable state — each engine lives behind its own lock and the merge
//! (step 4) reads shards in index order. Hence: same spec, same trace ⇒
//! same bits, whether run on 1 thread or 64.

use std::sync::Mutex;

use crate::engine::Engine;
use crate::event::QueueKind;
use crate::faults::FaultSpec;
use crate::job::Job;
use crate::metrics::{merge_resilience, ResilienceSummary};
use crate::sched::Policy;
use crate::sim::Outcome;
use crate::{Error, Result};
use rcr_kernels::{par, pool};

/// Routes a job id to its home shard: a SplitMix64 finalizer over the id,
/// reduced modulo `shards`. Deterministic, stateless, and insensitive to
/// id patterns (sequential ids spread evenly).
///
/// # Panics
/// Panics if `shards` is zero.
pub fn shard_of(job_id: u64, shards: usize) -> usize {
    assert!(shards > 0, "shard_of needs at least one shard");
    let mut z = job_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Derives the fault-stream seed for one `(shard, window)` slice from the
/// spec seed. The multipliers are the odd SplitMix64 constants also used
/// by [`crate::faults::FaultPlan`]; distinct keys land on distinct seeds
/// and `StdRng` diffuses the result further. `window_stream_seed(s, 0, 0)
/// == s`, which is what makes the single-shard, infinite-window fallback
/// replay a plain [`crate::sim::Simulator`] run exactly.
pub fn window_stream_seed(seed: u64, shard: usize, window: u64) -> u64 {
    seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ window.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Configuration of a windowed sharded run.
#[derive(Debug, Clone, Copy)]
pub struct WindowedSpec {
    /// Nodes in each sub-cluster. Jobs wider than this are rejected.
    pub nodes_per_shard: usize,
    /// Number of independent sub-clusters. Must be at least 1.
    pub shards: usize,
    /// Scheduling policy, applied per shard.
    pub policy: Policy,
    /// Fault model (use [`FaultSpec::none`] for reliable hardware). Its
    /// seed is the root of every `(shard, window)` stream.
    pub faults: FaultSpec,
    /// Window width in seconds. Must be positive; `f64::INFINITY` runs
    /// the whole trace as one window (the serial-fallback configuration).
    pub window: f64,
    /// Worker threads for the per-window advance. `0` resolves to
    /// [`par::default_threads`], which honours the `RCR_THREADS`
    /// environment override; `1` forces the serial path.
    pub threads: usize,
}

impl WindowedSpec {
    /// Validates the windowing parameters (the fault spec is validated by
    /// the engines).
    ///
    /// # Errors
    /// [`Error::InvalidWindowedSpec`] on zero shards or a non-positive or
    /// NaN window width.
    pub fn validated(self) -> Result<Self> {
        if self.shards == 0 {
            return Err(Error::InvalidWindowedSpec(
                "shards must be at least 1".to_string(),
            ));
        }
        if self.window.is_nan() || self.window <= 0.0 {
            return Err(Error::InvalidWindowedSpec(format!(
                "window must be positive (f64::INFINITY allowed), got {}",
                self.window
            )));
        }
        Ok(self)
    }
}

/// Merged result of a windowed run: one [`Outcome`] per shard, in shard
/// index order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedOutcome {
    /// Per-shard outcomes, indexed by shard id.
    pub shards: Vec<Outcome>,
    /// Windows executed, including the final drain window.
    pub windows: u64,
}

impl WindowedOutcome {
    /// Total events processed across all shards — the numerator of the
    /// E23 events/sec metric.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|o| o.events).sum()
    }

    /// Jobs completed across all shards.
    pub fn completed(&self) -> usize {
        self.shards.iter().map(|o| o.completed.len()).sum()
    }

    /// Jobs abandoned across all shards.
    pub fn abandoned(&self) -> usize {
        self.shards.iter().map(|o| o.abandoned.len()).sum()
    }

    /// Node failures injected across all shards.
    pub fn node_failures(&self) -> usize {
        self.shards.iter().map(|o| o.node_failures).sum()
    }

    /// Resilience metrics merged across shards (exact, not averaged —
    /// see [`merge_resilience`]).
    pub fn resilience(&self) -> ResilienceSummary {
        let parts: Vec<ResilienceSummary> = self.shards.iter().map(Outcome::resilience).collect();
        merge_resilience(&parts)
    }

    /// Order-sensitive checksum over every shard's [`Outcome::digest`].
    /// Two windowed runs are bit-for-bit identical iff their digests
    /// match; E23 compares this against the serial baseline before
    /// timing anything.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut push = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        push(self.shards.len() as u64);
        for o in &self.shards {
            push(o.digest());
        }
        h
    }
}

/// The windowed sharded simulator. See the module docs for the protocol.
#[derive(Debug, Clone, Copy)]
pub struct WindowedSim {
    spec: WindowedSpec,
}

impl WindowedSim {
    /// Creates a runner from a validated spec.
    ///
    /// # Errors
    /// [`Error::InvalidWindowedSpec`] on out-of-range windowing
    /// parameters.
    pub fn new(spec: WindowedSpec) -> Result<Self> {
        Ok(WindowedSim {
            spec: spec.validated()?,
        })
    }

    /// Runs a materialized trace. Equivalent to
    /// [`WindowedSim::run_stream`] over `jobs.map(Ok)`.
    ///
    /// # Errors
    /// See [`WindowedSim::run_stream`].
    pub fn run(&self, jobs: impl IntoIterator<Item = Job>) -> Result<WindowedOutcome> {
        self.run_stream(jobs.into_iter().map(Ok))
    }

    /// Runs a streamed trace (e.g. [`crate::swf::stream_jobs`]) without
    /// materializing it: jobs are pulled from the iterator one window at
    /// a time, so peak memory is bounded by the jobs *in flight*, not the
    /// trace length.
    ///
    /// # Errors
    /// Propagates iterator errors (e.g. SWF parse failures) as-is;
    /// [`Error::UnsortedTrace`] when submit times go backwards;
    /// [`Error::NoNodes`], [`Error::InvalidFaultSpec`],
    /// [`Error::InvalidJob`], or [`Error::JobTooWide`] as in the serial
    /// simulator (width is checked against `nodes_per_shard`).
    pub fn run_stream(
        &self,
        jobs: impl IntoIterator<Item = Result<Job>>,
    ) -> Result<WindowedOutcome> {
        let spec = &self.spec;
        let threads = if spec.threads == 0 {
            par::default_threads()
        } else {
            spec.threads
        };
        let mut engines = Vec::with_capacity(spec.shards);
        for _ in 0..spec.shards {
            engines.push(Mutex::new(Engine::new(
                spec.nodes_per_shard,
                spec.policy,
                spec.faults,
                QueueKind::Heap,
            )?));
        }

        let mut it = jobs.into_iter();
        let mut pending: Option<Job> = None;
        let mut exhausted = false;
        let mut last_submit = f64::NEG_INFINITY;
        let mut windows = 0u64;
        loop {
            let w = windows;
            let horizon = if spec.window.is_finite() {
                (w + 1) as f64 * spec.window
            } else {
                f64::INFINITY
            };
            // Step 1: inject this window's arrivals into their home shards.
            loop {
                if pending.is_none() {
                    match it.next() {
                        Some(Ok(job)) => pending = Some(job),
                        Some(Err(e)) => return Err(e),
                        None => {
                            exhausted = true;
                            break;
                        }
                    }
                }
                let job = pending.expect("lookahead filled above");
                if job.submit < last_submit {
                    return Err(Error::UnsortedTrace {
                        job: job.id,
                        submit: job.submit,
                        prev: last_submit,
                    });
                }
                if job.submit >= horizon {
                    // First job of a later window; keep it pending. (A NaN
                    // submit falls through to inject and is rejected as
                    // InvalidJob by the engine.)
                    break;
                }
                last_submit = last_submit.max(job.submit);
                let shard = shard_of(job.id, spec.shards);
                engines[shard]
                    .get_mut()
                    .expect("engine lock poisoned")
                    .inject(job)?;
                pending = None;
            }
            // The window that exhausts the trace drains to completion,
            // exactly like a serial run; earlier windows stop at the
            // horizon.
            let target = if exhausted { f64::INFINITY } else { horizon };
            // Step 2: pin each shard's fault stream to (seed, shard, w).
            for (shard, engine) in engines.iter_mut().enumerate() {
                engine
                    .get_mut()
                    .expect("engine lock poisoned")
                    .reseed(window_stream_seed(spec.faults.seed, shard, w));
            }
            // Step 3: advance every shard, in parallel when it can help.
            windows += 1;
            if threads == 1 || spec.shards == 1 {
                for engine in engines.iter_mut() {
                    engine
                        .get_mut()
                        .expect("engine lock poisoned")
                        .advance_to(target);
                }
            } else {
                pool::sized(threads).run_tasks(spec.shards, |shard| {
                    engines[shard]
                        .lock()
                        .expect("engine lock poisoned")
                        .advance_to(target);
                });
            }
            // Step 4 (the barrier) is implicit: run_tasks blocks until
            // every shard task returns.
            if target.is_infinite() {
                break;
            }
        }
        let shards = engines
            .into_iter()
            .map(|m| m.into_inner().expect("engine lock poisoned").into_outcome())
            .collect();
        Ok(WindowedOutcome { shards, windows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::RecoveryPolicy;
    use crate::sim::Simulator;
    use crate::workload::{generate, WorkloadSpec};

    fn trace(n: usize, seed: u64) -> Vec<Job> {
        generate(
            &WorkloadSpec {
                n_jobs: n,
                ..Default::default()
            },
            seed,
        )
    }

    fn faulty() -> FaultSpec {
        FaultSpec {
            node_mtbf: 40_000.0,
            repair_time: 600.0,
            job_failure_prob: 0.02,
            recovery: RecoveryPolicy::Resubmit {
                max_retries: 4,
                backoff_base: 60.0,
            },
            seed: 0xE23,
        }
    }

    fn base_spec() -> WindowedSpec {
        WindowedSpec {
            nodes_per_shard: 64,
            shards: 4,
            policy: Policy::EasyBackfill,
            faults: faulty(),
            window: 10_000.0,
            threads: 1,
        }
    }

    #[test]
    fn shard_routing_is_deterministic_and_covers_all_shards() {
        let shards = 8;
        let mut hit = vec![0usize; shards];
        for id in 0..4000u64 {
            let s = shard_of(id, shards);
            assert_eq!(s, shard_of(id, shards));
            hit[s] += 1;
        }
        // Sequential ids must spread: no shard starves or hogs.
        for (s, &h) in hit.iter().enumerate() {
            assert!(h > 250 && h < 750, "shard {s} got {h} of 4000");
        }
        assert_eq!(window_stream_seed(0xAB, 0, 0), 0xAB);
        assert_ne!(window_stream_seed(0xAB, 1, 0), 0xAB);
        assert_ne!(window_stream_seed(0xAB, 0, 1), 0xAB);
    }

    #[test]
    fn thread_count_never_changes_the_bits() {
        // The tentpole determinism claim, including the RCR_THREADS=1
        // parity satellite: threads = 0 resolves via default_threads()
        // (which honours RCR_THREADS), and every resolution must agree
        // with the forced-serial run bit for bit.
        let jobs = trace(600, 41);
        let run = |threads: usize| {
            WindowedSim::new(WindowedSpec {
                threads,
                ..base_spec()
            })
            .unwrap()
            .run(jobs.clone())
            .unwrap()
        };
        let serial = run(1);
        assert!(serial.node_failures() > 0, "spec must actually fire");
        for threads in [0, 2, 4, 7] {
            let par = run(threads);
            assert_eq!(serial, par, "threads = {threads}");
            assert_eq!(serial.digest(), par.digest(), "threads = {threads}");
        }
    }

    #[test]
    fn infinite_window_single_shard_replays_the_serial_simulator() {
        // The forced-serial fallback: one shard, one window, one thread
        // is the plain Simulator, bitwise (window_stream_seed(s,0,0) = s).
        let jobs = trace(400, 47);
        let spec = WindowedSpec {
            shards: 1,
            window: f64::INFINITY,
            threads: 1,
            ..base_spec()
        };
        let windowed = WindowedSim::new(spec).unwrap().run(jobs.clone()).unwrap();
        assert_eq!(windowed.windows, 1);
        assert_eq!(windowed.shards.len(), 1);
        let serial = Simulator::new(spec.nodes_per_shard, spec.policy)
            .with_faults(spec.faults)
            .unwrap()
            .run(jobs)
            .unwrap();
        assert_eq!(windowed.shards[0], serial);
        assert_eq!(windowed.shards[0].digest(), serial.digest());
    }

    #[test]
    fn window_width_is_irrelevant_on_reliable_hardware() {
        // With an inert fault spec no randomness is consumed, so the
        // reseed schedule cannot matter and every width gives one answer.
        let jobs = trace(500, 53);
        let run = |window: f64| {
            WindowedSim::new(WindowedSpec {
                faults: FaultSpec::none(9),
                window,
                threads: 2,
                ..base_spec()
            })
            .unwrap()
            .run(jobs.clone())
            .unwrap()
        };
        let narrow = run(2_000.0);
        let wide = run(50_000.0);
        let one = run(f64::INFINITY);
        assert!(narrow.windows > wide.windows);
        assert_eq!(one.windows, 1);
        assert_eq!(narrow.digest(), wide.digest());
        assert_eq!(narrow.digest(), one.digest());
        assert_eq!(narrow.completed(), jobs.len());
        assert_eq!(narrow.abandoned(), 0);
    }

    #[test]
    fn streamed_and_materialized_runs_agree() {
        let jobs = trace(300, 59);
        let sim = WindowedSim::new(base_spec()).unwrap();
        let a = sim.run(jobs.clone()).unwrap();
        let b = sim.run_stream(jobs.into_iter().map(Ok)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn merged_resilience_books_balance() {
        let jobs = trace(400, 61);
        let n = jobs.len();
        let out = WindowedSim::new(base_spec()).unwrap().run(jobs).unwrap();
        let r = out.resilience();
        assert_eq!(r.completed + r.abandoned, n, "conservation across shards");
        assert_eq!(r.completed, out.completed());
        assert_eq!(r.abandoned, out.abandoned());
        assert_eq!(r.node_failures, out.node_failures());
        assert!(r.goodput > 0.0);
        assert!(out.events() > 2 * n as u64);
    }

    #[test]
    fn unsorted_and_erroneous_streams_are_rejected() {
        let sim = WindowedSim::new(base_spec()).unwrap();
        let job = |id: u64, submit: f64| Job {
            id,
            submit,
            nodes: 1,
            runtime: 10.0,
            estimate: 10.0,
        };
        let err = sim.run(vec![job(0, 100.0), job(1, 50.0)]).unwrap_err();
        assert!(matches!(err, Error::UnsortedTrace { job: 1, .. }));
        let err = sim
            .run_stream(vec![Ok(job(0, 0.0)), Err(Error::InvalidJob(77))])
            .unwrap_err();
        assert_eq!(err, Error::InvalidJob(77));
        // Width is checked against the shard, not the federation.
        let wide = Job {
            id: 5,
            submit: 0.0,
            nodes: 65,
            runtime: 10.0,
            estimate: 10.0,
        };
        assert!(matches!(
            sim.run(vec![wide]).unwrap_err(),
            Error::JobTooWide { job: 5, .. }
        ));
    }

    #[test]
    fn bad_windowed_specs_are_rejected() {
        assert!(matches!(
            WindowedSim::new(WindowedSpec {
                shards: 0,
                ..base_spec()
            })
            .unwrap_err(),
            Error::InvalidWindowedSpec(_)
        ));
        for window in [0.0, -5.0, f64::NAN] {
            assert!(WindowedSim::new(WindowedSpec {
                window,
                ..base_spec()
            })
            .is_err());
        }
        // An invalid fault spec surfaces from engine construction.
        let bad = WindowedSpec {
            faults: FaultSpec {
                node_mtbf: 0.0,
                ..faulty()
            },
            ..base_spec()
        };
        assert!(matches!(
            WindowedSim::new(bad).unwrap().run(vec![]).unwrap_err(),
            Error::InvalidFaultSpec(_)
        ));
    }

    #[test]
    fn empty_trace_yields_empty_shards() {
        let out = WindowedSim::new(base_spec()).unwrap().run(vec![]).unwrap();
        assert_eq!(out.shards.len(), 4);
        assert_eq!(out.completed(), 0);
        assert_eq!(out.events(), 0);
        assert_eq!(out.windows, 1);
    }
}
