//! Experiment E19 (Figure 10): the open-loop overload study of the
//! `rcr-serve` execution service.
//!
//! The question: when a shared script-execution service is offered more
//! work than it can serve — and its infrastructure is injecting faults on
//! top — does it degrade *predictably* (bounded latency for what it
//! admits, explicit shedding for the rest) or does it collapse?
//!
//! Protocol:
//!
//! 1. **Calibrate.** A fault-free closed-loop run measures the service's
//!    saturation throughput on this machine.
//! 2. **Sweep.** Offered load ∈ {0.5×, 1×, 2×} of saturation, crossed with
//!    a fault ablation (none / moderate / heavy), each cell driven open
//!    loop: submissions follow a pre-drawn seeded Poisson process and do
//!    not slow down when the service pushes back — the defining property
//!    of real overload.
//! 3. **Verify, then report.** Every cell asserts the service's robustness
//!    contract before its numbers are accepted: every admitted job reached
//!    a typed terminal outcome (the outcome space is closed) and no
//!    completed job finished past its deadline.
//!
//! Reported per cell: sustained jobs/sec, completed-latency p50/p99, shed
//! rate, retry success rate, goodput/badput fractions, and the program
//! cache hit rate. Wall-clock latencies vary run to run; the *shapes*
//! (shed rate rising with offered load, goodput holding under faults) are
//! the experiment's reproducible claims.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use rcr_cluster::faults::FaultPlan;
use rcr_serve::{BackoffPolicy, JobError, JobSpec, Outcome, Service, ServiceConfig, TenantQuota};

use crate::perfgap::GapConfig;
use crate::{Error, Result};

/// Tenants in the study (scripts round-robin across them).
const TENANTS: usize = 4;

/// The three scripts in the workload mix — small, medium, and allocating —
/// so the program cache sees repeats and the executors see varied costs.
const SCRIPTS: [&str; 3] = [
    "let s = 0; for i in range(0, 4000) { s = s + i * i; } s",
    "let s = 0; for i in range(0, 20000) { s = s + i * 3; } s",
    "let a = zeros(2000); for i in range(0, 2000) { a[i] = i * 0.5; } vsum(a)",
];

/// One (offered-load, fault-level) cell of the E19 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ServePoint {
    /// Offered load as a multiple of measured saturation (0.5, 1, 2).
    pub offered_multiplier: f64,
    /// Fault-ablation level: `none`, `moderate`, or `heavy`.
    pub fault_level: String,
    /// Offered arrival rate, jobs/second.
    pub offered_rate: f64,
    /// Length of the offered-load window, seconds.
    pub duration_s: f64,
    /// Jobs offered (submission attempts).
    pub submitted: u64,
    /// Jobs admitted into the run queue.
    pub admitted: u64,
    /// Admitted jobs that completed within quota and deadline.
    pub completed: u64,
    /// Admitted jobs that failed with a typed error.
    pub failed: u64,
    /// Jobs shed or rejected at admission (typed, synchronous).
    pub rejected: u64,
    /// Completed jobs per second of wall time (admission window + drain).
    pub sustained_jps: f64,
    /// Median completed-job latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile completed-job latency, milliseconds.
    pub p99_ms: f64,
    /// `rejected / submitted`.
    pub shed_rate: f64,
    /// Of the jobs that hit at least one transient fault, the fraction
    /// that a retry ultimately rescued.
    pub retry_success_rate: f64,
    /// `completed / admitted` — the useful fraction of admitted work.
    pub goodput_fraction: f64,
    /// `failed / admitted` — admitted work that produced no result.
    pub badput_fraction: f64,
    /// Retry attempts launched.
    pub retries: u64,
    /// Program-cache hit rate over all compile requests.
    pub cache_hit_rate: f64,
}

/// A named fault level of the ablation.
struct FaultLevel {
    name: &'static str,
    plan: fn(u64) -> FaultPlan,
}

const FAULT_LEVELS: [FaultLevel; 3] = [
    FaultLevel {
        name: "none",
        plan: FaultPlan::none,
    },
    FaultLevel {
        name: "moderate",
        plan: |seed| FaultPlan {
            crash_prob: 0.05,
            compile_fail_prob: 0.02,
            slow_prob: 0.05,
            slow_factor: 2.0,
            ..FaultPlan::none(seed)
        },
    },
    FaultLevel {
        name: "heavy",
        plan: |seed| FaultPlan {
            crash_prob: 0.15,
            compile_fail_prob: 0.05,
            slow_prob: 0.10,
            slow_factor: 3.0,
            ..FaultPlan::none(seed)
        },
    },
];

const OFFERED_MULTIPLIERS: [f64; 3] = [0.5, 1.0, 2.0];

fn base_config(executors: usize, deadline: Duration) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantQuota::default(); TENANTS],
        executors,
        queue_capacity: 64,
        admission_rate: 1e9,
        admission_burst: 1e9,
        default_deadline: deadline,
        breaker_threshold: 10,
        breaker_cooldown: Duration::from_millis(50),
        backoff: BackoffPolicy {
            max_attempts: 4,
            base: 0.0005,
            cap: 0.004,
            seed: 0xE19,
        },
        faults: FaultPlan::none(0xE19),
        fuel_slice: 100_000,
        static_admission: true,
        program_cache_capacity: rcr_serve::PROGRAM_CACHE_CAPACITY,
    }
}

/// Closed-loop, fault-free calibration: jobs/second with all executors
/// kept busy. The sweep's offered rates are multiples of this.
fn measure_saturation(executors: usize, jobs: usize) -> Result<f64> {
    let mut config = base_config(executors, Duration::from_secs(30));
    config.queue_capacity = jobs + 8;
    let service = Service::new(config);
    for (i, script) in SCRIPTS.iter().enumerate() {
        // Warm the program cache so calibration measures execution.
        submit_ok(&service, i % TENANTS, script)?.wait();
    }
    let started = Instant::now();
    let handles: Result<Vec<_>> = (0..jobs)
        .map(|i| submit_ok(&service, i % TENANTS, SCRIPTS[i % SCRIPTS.len()]))
        .collect();
    let handles = handles?;
    for h in &handles {
        if !h.wait().is_completed() {
            return Err(Error::VerificationFailed(
                "E19 calibration: fault-free job did not complete".into(),
            ));
        }
    }
    let rate = jobs as f64 / started.elapsed().as_secs_f64();
    service.shutdown();
    Ok(rate.max(1.0))
}

fn submit_ok(service: &Service, tenant: usize, script: &str) -> Result<rcr_serve::JobHandle> {
    service
        .submit(JobSpec::new(tenant, script))
        .map_err(|r| Error::VerificationFailed(format!("E19 calibration rejected a job: {r}")))
}

/// Runs one open-loop cell and verifies the robustness contract.
fn run_cell(
    seed: u64,
    executors: usize,
    deadline: Duration,
    saturation: f64,
    multiplier: f64,
    level: &FaultLevel,
    duration: Duration,
) -> Result<ServePoint> {
    let mut config = base_config(executors, deadline);
    // Admission is provisioned at measured capacity, split per tenant;
    // everything past it must be shed explicitly.
    config.admission_rate = (saturation / TENANTS as f64).max(1.0);
    config.admission_burst = 8.0;
    config.faults = (level.plan)(seed);
    let service = Service::new(config);

    // Pre-drawn Poisson arrivals: exponential gaps at the offered rate.
    let offered_rate = (multiplier * saturation).max(1.0);
    let n_jobs = ((offered_rate * duration.as_secs_f64()).ceil() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ multiplier.to_bits());
    let mut arrivals = Vec::with_capacity(n_jobs);
    let mut t = 0.0f64;
    for _ in 0..n_jobs {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / offered_rate;
        arrivals.push(t);
    }

    // Open loop: replay the arrival process regardless of how the service
    // is coping. A late wake-up submits immediately (burst), it never
    // stretches the schedule.
    let started = Instant::now();
    let mut handles = Vec::new();
    let mut rejected = 0u64;
    for (i, &at) in arrivals.iter().enumerate() {
        let due = started + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match service.submit(JobSpec::new(i % TENANTS, SCRIPTS[i % SCRIPTS.len()])) {
            Ok(handle) => handles.push(handle),
            Err(_typed) => rejected += 1,
        }
    }
    let offered_window = started.elapsed();

    // Drain: every admitted job must terminate. The bound turns a hang
    // into an error instead of a wedged experiment.
    let mut latencies = Vec::new();
    let mut retried_completed = 0u64;
    let mut transient_failures = 0u64;
    for handle in &handles {
        match handle.wait_timeout(Duration::from_secs(30)) {
            Some(Outcome::Completed {
                attempts, latency, ..
            }) => {
                latencies.push(latency);
                if attempts > 1 {
                    retried_completed += 1;
                }
            }
            Some(Outcome::Failed(JobError::WorkerCrash { .. } | JobError::CompileFault { .. })) => {
                transient_failures += 1
            }
            Some(Outcome::Failed(_typed)) => {}
            None => {
                return Err(Error::VerificationFailed(
                    "E19: an admitted job hung past the liveness bound".into(),
                ))
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    service.shutdown();

    let m = service.metrics();
    if m.completed + m.failed + m.cancelled != m.admitted {
        return Err(Error::VerificationFailed(format!(
            "E19 {}/{multiplier}x: outcome space not closed: {m:?}",
            level.name
        )));
    }
    latencies.sort();
    let pct = |p: usize| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[(latencies.len() - 1) * p / 100].as_secs_f64() * 1e3
        }
    };
    let (p50_ms, p99_ms) = (pct(50), pct(99));
    if p99_ms > deadline.as_secs_f64() * 1e3 + 50.0 {
        return Err(Error::VerificationFailed(format!(
            "E19 {}/{multiplier}x: completed p99 {p99_ms:.1} ms exceeds the deadline",
            level.name
        )));
    }

    let cache = service.cache_stats();
    let compile_requests = cache.hits + cache.misses;
    let faulted = retried_completed + transient_failures;
    Ok(ServePoint {
        offered_multiplier: multiplier,
        fault_level: level.name.to_owned(),
        offered_rate,
        duration_s: offered_window.as_secs_f64(),
        submitted: m.submitted,
        admitted: m.admitted,
        completed: m.completed,
        failed: m.failed + m.cancelled,
        rejected,
        sustained_jps: m.completed as f64 / wall.max(1e-9),
        p50_ms,
        p99_ms,
        shed_rate: rejected as f64 / (m.submitted as f64).max(1.0),
        retry_success_rate: if faulted == 0 {
            1.0
        } else {
            retried_completed as f64 / faulted as f64
        },
        goodput_fraction: m.completed as f64 / (m.admitted as f64).max(1.0),
        badput_fraction: (m.failed + m.cancelled) as f64 / (m.admitted as f64).max(1.0),
        retries: m.retries,
        cache_hit_rate: cache.hits as f64 / (compile_requests as f64).max(1.0),
    })
}

/// Runs the E19 overload study: calibration, then the 3 offered-load × 3
/// fault-level sweep. `config.threads` sets the executor count; `quick`
/// shortens the offered-load window.
///
/// # Errors
/// [`Error::VerificationFailed`] when any cell violates the robustness
/// contract (an unresolved handle, an unclosed outcome space, or a
/// completed job past its deadline).
pub fn run(seed: u64, config: &GapConfig) -> Result<Vec<ServePoint>> {
    let executors = config.threads.max(1);
    let deadline = Duration::from_millis(250);
    let (calib_jobs, window) = if config.quick {
        (40, Duration::from_millis(250))
    } else {
        (120, Duration::from_millis(1200))
    };
    let saturation = measure_saturation(executors, calib_jobs)?;

    let mut out = Vec::with_capacity(OFFERED_MULTIPLIERS.len() * FAULT_LEVELS.len());
    for level in &FAULT_LEVELS {
        for &multiplier in &OFFERED_MULTIPLIERS {
            out.push(run_cell(
                seed, executors, deadline, saturation, multiplier, level, window,
            )?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shape_and_contract() {
        let pts = run(0xE19, &GapConfig::quick()).unwrap();
        assert_eq!(pts.len(), 9, "3 fault levels x 3 offered loads");
        for p in &pts {
            // run() already verified closure and the deadline bound; spot
            // check the derived numbers are coherent.
            assert_eq!(p.completed + p.failed, p.admitted, "{p:?}");
            assert_eq!(p.admitted + p.rejected, p.submitted, "{p:?}");
            assert!(p.completed > 0, "every cell must do useful work: {p:?}");
            assert!((0.0..=1.0).contains(&p.shed_rate));
            assert!((0.0..=1.0).contains(&p.goodput_fraction));
            assert!((0.0..=1.0).contains(&p.retry_success_rate));
            assert!((0.0..=1.0).contains(&p.cache_hit_rate));
            assert!(p.p50_ms <= p.p99_ms);
            assert!(p.sustained_jps > 0.0);
        }
        // Overload must shed more than underload at every fault level.
        for level in ["none", "moderate", "heavy"] {
            let shed = |mult: f64| {
                pts.iter()
                    .find(|p| p.fault_level == level && p.offered_multiplier == mult)
                    .expect("cell")
                    .shed_rate
            };
            assert!(
                shed(2.0) > shed(0.5),
                "{level}: shed at 2x ({}) must exceed shed at 0.5x ({})",
                shed(2.0),
                shed(0.5)
            );
        }
        // Faults cost retries: the heavy column retries more than none.
        let retries = |level: &str| -> u64 {
            pts.iter()
                .filter(|p| p.fault_level == level)
                .map(|p| p.retries)
                .sum()
        };
        assert!(retries("heavy") > retries("none"));
    }
}
