//! The crate's headline robustness property, as an end-to-end test: with
//! faults injected and offered load at twice the measured saturation
//! throughput, the service never panics and never hangs — every submission
//! either is rejected synchronously with a typed reason or terminates in a
//! typed outcome, and no job that completes does so past its deadline.

use std::time::{Duration, Instant};

use rcr_cluster::faults::FaultPlan;
use rcr_serve::{BackoffPolicy, JobSpec, Outcome, Service, ServiceConfig, TenantQuota};

const SCRIPT: &str = "let s = 0; for i in range(0, 20000) { s = s + i * i; } s";
const TENANTS: usize = 4;
const EXECUTORS: usize = 2;

fn base_config() -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantQuota::default(); TENANTS],
        executors: EXECUTORS,
        queue_capacity: 32,
        admission_rate: 1e9, // calibration: no admission limit
        admission_burst: 1e9,
        default_deadline: Duration::from_millis(250),
        breaker_threshold: 8,
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

/// Closed-loop calibration: measured fault-free completion rate with every
/// executor kept busy, in jobs/second.
fn measure_saturation() -> f64 {
    let mut config = base_config();
    // Calibration is a batch submission, not an open loop: give the queue
    // room for the whole batch and disarm the deadline.
    config.queue_capacity = 256;
    config.default_deadline = Duration::from_secs(30);
    let service = Service::new(config);
    // Warm the program cache so calibration measures execution, not the
    // one-off compile.
    service.submit(JobSpec::new(0, SCRIPT)).unwrap().wait();
    let jobs = 60;
    let started = Instant::now();
    let handles: Vec<_> = (0..jobs)
        .map(|i| service.submit(JobSpec::new(i % TENANTS, SCRIPT)).unwrap())
        .collect();
    for h in &handles {
        assert!(h.wait().is_completed(), "calibration jobs must complete");
    }
    let rate = jobs as f64 / started.elapsed().as_secs_f64();
    service.shutdown();
    rate
}

#[test]
fn overload_with_faults_never_panics_or_hangs_and_every_job_terminates() {
    let saturation = measure_saturation();
    assert!(saturation > 0.0);

    let mut config = base_config();
    // Admission is provisioned at the measured capacity; the offered load
    // will be twice that, so roughly half of it must be shed — explicitly.
    config.admission_rate = (saturation / TENANTS as f64).max(1.0);
    config.admission_burst = 8.0;
    config.faults = FaultPlan {
        crash_prob: 0.15,
        compile_fail_prob: 0.05,
        slow_prob: 0.10,
        slow_factor: 3.0,
        ..FaultPlan::none(0xE19)
    };
    let deadline = config.default_deadline;
    let service = Service::new(config);

    // Open loop: offer 2× saturation for ~1.5 s in 5 ms batches,
    // round-robin across tenants, regardless of how the service is coping.
    let offered_rate = 2.0 * saturation;
    let batch_interval = Duration::from_millis(5);
    let per_batch = ((offered_rate * batch_interval.as_secs_f64()).ceil() as usize).max(1);
    let batches = (1.5 / batch_interval.as_secs_f64()) as usize;

    let mut handles = Vec::new();
    let mut rejected = 0u64;
    for batch in 0..batches {
        for i in 0..per_batch {
            let tenant = (batch * per_batch + i) % TENANTS;
            match service.submit(JobSpec::new(tenant, SCRIPT)) {
                Ok(handle) => handles.push(handle),
                Err(_typed) => rejected += 1,
            }
        }
        std::thread::sleep(batch_interval);
    }

    // Every admitted job must reach a terminal outcome. The bound is
    // generous (queue drain + retries + backoff), but it is a bound: a
    // hang fails the test rather than wedging it.
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    for handle in &handles {
        match handle.wait_timeout(Duration::from_secs(30)) {
            Some(Outcome::Completed { latency, .. }) => {
                completed += 1;
                latencies.push(latency);
            }
            Some(Outcome::Failed(_typed)) => failed += 1,
            None => panic!("a job hung past the liveness bound"),
        }
    }

    // At 2× saturation, admission control must have shed load explicitly.
    assert!(rejected > 0, "2x overload must shed something");
    assert!(completed > 0, "the service must still do useful work");

    // No completed job finished past its deadline (the finished-late check
    // reclassifies those), modulo scheduler slop on the latency stamp.
    latencies.sort();
    if !latencies.is_empty() {
        let p99 = latencies[(latencies.len() - 1) * 99 / 100];
        assert!(
            p99 <= deadline + Duration::from_millis(50),
            "completed p99 {p99:?} exceeds deadline {deadline:?}"
        );
    }

    service.shutdown();
    let m = service.metrics();
    assert_eq!(m.admitted, handles.len() as u64);
    assert_eq!(
        m.completed + m.failed + m.cancelled,
        m.admitted,
        "outcome space must be closed: {m:?}"
    );
    assert_eq!(m.completed, completed);
    assert_eq!(m.failed + m.cancelled, failed);
    assert_eq!(
        m.shed_overloaded + m.rejected_circuit_open + m.rejected_shutting_down,
        rejected,
        "every rejection is typed and counted: {m:?}"
    );

    // Submitting after shutdown is a typed rejection, not a panic.
    assert!(service.submit(JobSpec::new(0, SCRIPT)).is_err());
}
