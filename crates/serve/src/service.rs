//! The execution service: admission, queueing, execution, retries,
//! breaker feedback, and shutdown — the place where every mechanism in
//! this crate composes into one liveness argument.
//!
//! # Life of a job
//!
//! ```text
//! submit ─▶ static cost ─▶ tenant bucket ─▶ breaker ─▶ bounded queue ─▶ executor
//!             │ lo>quota       │ empty         │ open       │ full          │
//!             ▼                ▼               ▼            ▼               ▼
//!       Statically-        Overloaded     CircuitOpen   Overloaded    attempt loop:
//!       Infeasible                                                    fault? retry w/
//!                                                                    backoff; deadline
//!                                                                    checked per slice
//!                                                                         │
//!                                                                         ▼
//!                                                              Completed | Failed(typed)
//! ```
//!
//! The static-cost stage is the abstract interpreter's fuel lower bound
//! (`rcr_minilang::absint`), memoized per content hash (at most
//! [`ServiceConfig::program_cache_capacity`] entries): a job it sheds could
//! only ever have ended in `FuelQuotaExceeded`, so rejecting it costs zero
//! queue/compile/execute work ([`Rejected::StaticallyInfeasible`]).
//!
//! Each attempt runs on its executor thread as one VM run. The VM stops
//! after every `fuel_slice` of fuel to let the executor check the
//! deadline, then resumes in place, so a long job is never re-executed.
//!
//! # Why every handle resolves (liveness)
//!
//! A [`JobHandle`] is created only after its job is *enqueued*. From there:
//!
//! * an executor pops it and `execute` always writes exactly one terminal
//!   [`Outcome`] (the attempt loop is bounded by `max_attempts` and the
//!   deadline, and a panic inside an attempt is caught by
//!   [`std::panic::catch_unwind`] on the executor thread and retried as a
//!   transient crash, ending in [`JobError::WorkerCrash`] if every attempt
//!   crashes); or
//! * shutdown drains the queue and terminates every still-queued job with
//!   [`JobError::Cancelled`].
//!
//! Pushing onto a closed queue fails back to the submitter (no handle is
//! ever created for an unqueued job), so no job can fall between the
//! executors stopping and the drain. Every admitted job also reports its
//! terminal outcome to its tenant's circuit breaker exactly once, which is
//! what lets a half-open breaker always eventually learn its probe's fate.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rcr_cluster::faults::{FaultPlan, InjectedFault};
use rcr_minilang::jit::{Jit, JitConfig};
use rcr_minilang::vm::Vm;
use rcr_minilang::Error;

use crate::admission::{BoundedQueue, PushOutcome, TokenBucket};
use crate::backoff::BackoffPolicy;
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::cache::{self, CacheStats, ProgramCache};
use crate::job::{JobError, JobSpec, Outcome, Rejected};
use crate::program::{self, ProgramArtifact};

/// Per-tenant execution quotas, enforced on every attempt of every job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Per-job fuel (interpreter/VM step) budget.
    pub fuel: u64,
    /// Per-job heap allocation budget in bytes (see
    /// `rcr_minilang::value::heap_cost` for the cost model).
    pub memory: u64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            fuel: 5_000_000,
            memory: 16 << 20,
        }
    }
}

/// Service configuration. The [`Default`] is sized for tests and studies:
/// two executors, sub-second deadlines, no injected faults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// One quota per tenant; a job's `tenant` index must be in range.
    pub tenants: Vec<TenantQuota>,
    /// Executor threads; each runs its jobs itself.
    pub executors: usize,
    /// Run-queue capacity; pushes beyond it are shed as `Overloaded`.
    pub queue_capacity: usize,
    /// Sustained admission rate per tenant, in jobs/second.
    pub admission_rate: f64,
    /// Admission burst per tenant, in jobs (clamped to ≥ 1).
    pub admission_burst: f64,
    /// Deadline for jobs that do not set one explicitly.
    pub default_deadline: Duration,
    /// Consecutive failures that trip a tenant's circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening.
    pub breaker_cooldown: Duration,
    /// Retry schedule for transient (injected) faults.
    pub backoff: BackoffPolicy,
    /// Fault-injection plan applied per (job, attempt).
    pub faults: FaultPlan,
    /// Fuel between deadline checks. A run pauses after each slice, checks
    /// the wall clock, and resumes in place, so a smaller slice preempts a
    /// runaway script sooner at the cost of more clock reads; no work is
    /// ever re-run.
    pub fuel_slice: u64,
    /// Static admission: consult the abstract interpreter's fuel cost
    /// report at submit time and shed jobs whose static fuel *lower bound*
    /// already exceeds the tenant's quota
    /// ([`Rejected::StaticallyInfeasible`]) before any queue, compile, or
    /// execute cost is paid. Analysis results are memoized by content
    /// hash, within [`ServiceConfig::program_cache_capacity`].
    pub static_admission: bool,
    /// Bound on resolved program-cache entries (LRU eviction past it, see
    /// [`crate::cache`]) and on static-admission memo entries; keeps a
    /// long-lived service's memory flat even when tenants submit an
    /// unbounded stream of distinct programs.
    pub program_cache_capacity: usize,
    /// Execute jobs on the register-IR JIT tier. The JIT's fuel and
    /// memory accounting is bit-identical to the fused VM, so deadline
    /// checks, preemption, and quota outcomes are unchanged; compiled
    /// code is shared per artifact across workers and requests.
    pub jit: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tenants: vec![TenantQuota::default(); 4],
            executors: 2,
            queue_capacity: 64,
            admission_rate: 500.0,
            admission_burst: 32.0,
            default_deadline: Duration::from_secs(2),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
            backoff: BackoffPolicy {
                max_attempts: 3,
                base: 0.0005,
                cap: 0.005,
                seed: 0x5EED,
            },
            faults: FaultPlan::none(0x5EED),
            fuel_slice: 50_000,
            static_admission: true,
            program_cache_capacity: cache::DEFAULT_CAPACITY,
            jit: true,
        }
    }
}

/// Monotonic service-wide counters; see [`Service::metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Calls to [`Service::submit`].
    pub submitted: u64,
    /// Jobs that made it into the run queue.
    pub admitted: u64,
    /// Admitted jobs that completed.
    pub completed: u64,
    /// Admitted jobs that failed with a typed [`JobError`] (excluding
    /// shutdown cancellations).
    pub failed: u64,
    /// Admitted jobs cancelled by shutdown before executing.
    pub cancelled: u64,
    /// Submissions shed as [`Rejected::Overloaded`] (no token, or queue
    /// full).
    pub shed_overloaded: u64,
    /// Submissions rejected by an open circuit breaker.
    pub rejected_circuit_open: u64,
    /// Submissions naming a tenant that does not exist.
    pub rejected_unknown_tenant: u64,
    /// Submissions rejected because the service was shutting down.
    pub rejected_shutting_down: u64,
    /// Submissions shed at static admission: the program's static fuel
    /// lower bound provably exceeds the tenant quota
    /// ([`Rejected::StaticallyInfeasible`]).
    pub rejected_statically_infeasible: u64,
    /// Retry attempts launched after transient faults.
    pub retries: u64,
}

#[derive(Default)]
struct MetricsCells {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    shed_overloaded: AtomicU64,
    rejected_circuit_open: AtomicU64,
    rejected_unknown_tenant: AtomicU64,
    rejected_shutting_down: AtomicU64,
    rejected_statically_infeasible: AtomicU64,
    retries: AtomicU64,
}

impl MetricsCells {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            rejected_circuit_open: self.rejected_circuit_open.load(Ordering::Relaxed),
            rejected_unknown_tenant: self.rejected_unknown_tenant.load(Ordering::Relaxed),
            rejected_shutting_down: self.rejected_shutting_down.load(Ordering::Relaxed),
            rejected_statically_infeasible: self
                .rejected_statically_infeasible
                .load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// Write-once terminal-outcome slot shared between an executor (or the
/// shutdown drain) and the submitter's [`JobHandle`].
#[derive(Debug)]
struct OneShot {
    outcome: Mutex<Option<Outcome>>,
    done: Condvar,
}

impl OneShot {
    fn new() -> Self {
        OneShot {
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// First write wins; a second terminal outcome is a bug upstream and
    /// is dropped rather than overwriting the one the caller may already
    /// have observed.
    fn set(&self, outcome: Outcome) {
        let mut slot = self.outcome.lock().unwrap();
        if slot.is_none() {
            *slot = Some(outcome);
            drop(slot);
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Outcome {
        let mut slot = self.outcome.lock().unwrap();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).unwrap();
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.outcome.lock().unwrap();
        loop {
            if let Some(outcome) = slot.as_ref() {
                return Some(outcome.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self.done.wait_timeout(slot, left).unwrap();
            slot = guard;
        }
    }
}

/// Awaitable handle to an admitted job. Dropping the handle does not
/// cancel the job; the service still runs it to a terminal outcome.
#[derive(Debug)]
pub struct JobHandle {
    slot: Arc<OneShot>,
}

impl JobHandle {
    /// Blocks until the job reaches its terminal [`Outcome`].
    ///
    /// This never hangs: admitted jobs are either executed (the attempt
    /// loop is bounded) or cancelled by the shutdown drain.
    pub fn wait(&self) -> Outcome {
        self.slot.wait()
    }

    /// Like [`JobHandle::wait`] with an upper bound; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        self.slot.wait_timeout(timeout)
    }

    /// Non-blocking check for the terminal outcome.
    pub fn poll(&self) -> Option<Outcome> {
        self.slot.outcome.lock().unwrap().clone()
    }
}

/// Per-tenant admission state (bucket + breaker) behind one lock, so an
/// admission decision is atomic per tenant.
struct TenantState {
    bucket: TokenBucket,
    breaker: CircuitBreaker,
}

/// An admitted job, as carried by the run queue.
struct QueuedJob {
    id: u64,
    tenant: usize,
    source: String,
    submitted_at: Instant,
    deadline: Duration,
    slot: Arc<OneShot>,
}

struct Inner {
    config: ServiceConfig,
    epoch: Instant,
    tenants: Vec<Mutex<TenantState>>,
    queue: BoundedQueue<QueuedJob>,
    cache: ProgramCache,
    /// Static fuel lower bounds by content hash (`None` = unparseable, so
    /// admission passes the job through for a typed compile error). Holds
    /// at most the program cache's capacity; see [`Inner::static_fuel_lo`].
    static_costs: Mutex<HashMap<u64, Option<u64>>>,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    metrics: MetricsCells,
}

impl Inner {
    /// Seconds since service start — the clock the bucket and breakers run
    /// on.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Cached static fuel lower bound of `source` (see
    /// [`program::static_fuel_lower_bound`]). One analysis per distinct
    /// source text, keyed by content hash.
    fn static_fuel_lo(&self, source: &str) -> Option<u64> {
        let key = program::content_hash(source);
        if let Some(cached) = self.static_costs.lock().unwrap().get(&key) {
            return *cached;
        }
        // Analyze outside the lock: admission stays cheap for concurrent
        // submitters of already-seen programs, and a duplicate analysis of
        // a brand-new program is deterministic, so last-write-wins is fine.
        let lo = program::static_fuel_lower_bound(source);
        let mut memo = self.static_costs.lock().unwrap();
        // A full memo starts over: entries are deterministic, so dropping
        // them costs only a re-analysis, never a different decision.
        if memo.len() >= self.cache.capacity() && !memo.contains_key(&key) {
            memo.clear();
        }
        memo.insert(key, lo);
        lo
    }
}

/// The multi-tenant script-execution service. See the module docs for the
/// admission pipeline and the liveness argument.
pub struct Service {
    inner: Arc<Inner>,
    executors: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Service {
    /// Starts a service with `config.executors` executor threads.
    ///
    /// # Panics
    /// On structurally invalid configuration (no tenants, zero executors,
    /// non-positive admission rate, or an invalid fault plan) — these are
    /// programmer errors, not load conditions.
    pub fn new(config: ServiceConfig) -> Service {
        assert!(!config.tenants.is_empty(), "at least one tenant required");
        assert!(config.executors >= 1, "at least one executor required");
        config.faults.validated().expect("invalid fault plan");
        silence_injected_crash_panics();
        let tenants = config
            .tenants
            .iter()
            .map(|_| {
                Mutex::new(TenantState {
                    bucket: TokenBucket::new(config.admission_rate, config.admission_burst),
                    breaker: CircuitBreaker::new(
                        config.breaker_threshold,
                        config.breaker_cooldown.as_secs_f64(),
                    ),
                })
            })
            .collect();
        let inner = Arc::new(Inner {
            epoch: Instant::now(),
            tenants,
            queue: BoundedQueue::new(config.queue_capacity),
            cache: ProgramCache::with_capacity(config.program_cache_capacity),
            static_costs: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            metrics: MetricsCells::default(),
            config,
        });
        let executors = (0..inner.config.executors)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("rcr-serve-exec-{i}"))
                    .spawn(move || executor_loop(&inner))
                    .expect("spawn executor")
            })
            .collect();
        Service {
            inner,
            executors: Mutex::new(executors),
        }
    }

    /// Submits one job. Admission is synchronous: the job is either in the
    /// run queue with a [`JobHandle`] guaranteed to resolve, or rejected
    /// right here with a typed [`Rejected`] and zero work done.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejected> {
        let inner = &self.inner;
        inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        if inner.shutting_down.load(Ordering::SeqCst) {
            inner
                .metrics
                .rejected_shutting_down
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::ShuttingDown);
        }
        if spec.tenant >= inner.config.tenants.len() {
            inner
                .metrics
                .rejected_unknown_tenant
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::UnknownTenant);
        }
        // Static admission: a job whose static fuel lower bound already
        // exceeds the tenant quota can only end in FuelQuotaExceeded, so
        // shed it here — before it costs a token, a queue slot, a compile,
        // or an execution. Runs before the tenant lock; it touches no
        // per-tenant state.
        if inner.config.static_admission {
            let budget = inner.config.tenants[spec.tenant].fuel;
            if let Some(lo) = inner.static_fuel_lo(&spec.source) {
                if lo > budget {
                    inner
                        .metrics
                        .rejected_statically_infeasible
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(Rejected::StaticallyInfeasible {
                        required: lo,
                        budget,
                    });
                }
            }
        }

        let now = inner.now();
        let mut tenant = inner.tenants[spec.tenant].lock().unwrap();
        if !tenant.bucket.try_acquire(now) {
            inner
                .metrics
                .shed_overloaded
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Overloaded);
        }
        // Snapshot the breaker before asking, so a job the breaker admitted
        // but the queue shed can be un-admitted: otherwise a shed half-open
        // probe would leave the breaker waiting forever for a report.
        let saved_breaker = tenant.breaker;
        if !tenant.breaker.admit(now) {
            inner
                .metrics
                .rejected_circuit_open
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::CircuitOpen);
        }

        let slot = Arc::new(OneShot::new());
        let job = QueuedJob {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            tenant: spec.tenant,
            source: spec.source,
            submitted_at: Instant::now(),
            deadline: spec.deadline.unwrap_or(inner.config.default_deadline),
            slot: Arc::clone(&slot),
        };
        match inner.queue.push(job) {
            PushOutcome::Enqueued => {
                inner.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle { slot })
            }
            PushOutcome::Full(_) => {
                tenant.breaker = saved_breaker;
                inner
                    .metrics
                    .shed_overloaded
                    .fetch_add(1, Ordering::Relaxed);
                Err(Rejected::Overloaded)
            }
            PushOutcome::Closed(_) => {
                tenant.breaker = saved_breaker;
                inner
                    .metrics
                    .rejected_shutting_down
                    .fetch_add(1, Ordering::Relaxed);
                Err(Rejected::ShuttingDown)
            }
        }
    }

    /// Stops accepting work, cancels everything still queued (each such job
    /// terminates with [`JobError::Cancelled`]), and joins the executors.
    /// In-flight jobs run to their terminal outcome first. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        for job in self.inner.queue.close_and_drain() {
            self.inner.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            job.slot.set(Outcome::Failed(JobError::Cancelled));
        }
        let handles: Vec<_> = self.executors.lock().unwrap().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Snapshot of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Snapshot of the program-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Current breaker state of `tenant` (diagnostic; `None` if the tenant
    /// does not exist).
    pub fn breaker_state(&self, tenant: usize) -> Option<BreakerState> {
        self.inner
            .tenants
            .get(tenant)
            .map(|t| t.lock().unwrap().breaker.state())
    }

    /// Jobs currently waiting in the run queue (diagnostic; racy).
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Injected worker crashes are deliberate panics that each attempt's
/// `catch_unwind` always contains; letting the default panic hook print a
/// backtrace for each would bury real output under thousands of lines in a
/// fault-heavy study. This hook swallows exactly those panics (matched by their
/// message prefix) and forwards everything else untouched.
fn silence_injected_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected worker crash"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Executor thread body: pop, execute, repeat, until shutdown.
///
/// An executor yields after publishing each outcome. Jobs run on the
/// executor thread itself, so back to back it never sleeps; the thread the
/// outcome wakes (typically the submitter, whose next `submit` runs static
/// admission) would otherwise wait out this executor's scheduler slice when
/// the two share a CPU, while the queue drains and the other executor goes
/// idle. How long that stall lasts depends on where the scheduler placed
/// the threads, so without the yield throughput varies from run to run.
fn executor_loop(inner: &Inner) {
    loop {
        match inner.queue.pop(Duration::from_millis(25)) {
            Some(job) => {
                execute(inner, job);
                thread::yield_now();
            }
            None => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Runs one popped job to its terminal outcome, publishes it, and reports
/// it to the tenant's breaker — the one place both always happen, exactly
/// once.
fn execute(inner: &Inner, job: QueuedJob) {
    let quota = inner.config.tenants[job.tenant];
    let deadline_at = job.submitted_at + job.deadline;
    let outcome = run_job(inner, &job, quota, deadline_at);
    let completed = outcome.is_completed();
    if completed {
        inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
    }
    // Feed the breaker BEFORE waking the waiter: anyone unblocked by
    // `JobHandle::wait` must observe the breaker state this outcome
    // produced, not the state from before the job ran.
    let now = inner.now();
    {
        let mut tenant = inner.tenants[job.tenant].lock().unwrap();
        if completed {
            tenant.breaker.record_success();
        } else {
            tenant.breaker.record_failure(now);
        }
    }
    job.slot.set(outcome);
}

/// How one attempt ended, from the retry loop's point of view.
enum Attempt {
    /// The script completed; here is its rendered result.
    Done(String),
    /// Deterministic failure (or deadline): retrying is wasted work.
    Fatal(JobError),
    /// Injected transient fault: retry if budget and deadline allow.
    Transient(Transient),
}

enum Transient {
    Crash(String),
    Compile,
}

impl Transient {
    fn into_terminal(self, attempts: u32) -> JobError {
        match self {
            Transient::Crash(message) => JobError::WorkerCrash { message, attempts },
            Transient::Compile => JobError::CompileFault { attempts },
        }
    }
}

/// The bounded attempt loop: at most `max_attempts` attempts, each
/// preceded by a deadline check, with backoff sleeps between transient
/// failures. Always returns a terminal outcome.
fn run_job(inner: &Inner, job: &QueuedJob, quota: TenantQuota, deadline_at: Instant) -> Outcome {
    if Instant::now() >= deadline_at {
        // Expired while queued: don't waste an executor on a dead job.
        return Outcome::Failed(JobError::DeadlineExceeded);
    }
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match run_attempt(inner, job, quota, deadline_at, attempt) {
            Attempt::Done(output) => {
                return Outcome::Completed {
                    output,
                    attempts: attempt,
                    latency: job.submitted_at.elapsed(),
                }
            }
            Attempt::Fatal(e) => return Outcome::Failed(e),
            Attempt::Transient(t) => {
                if !inner.config.backoff.allows_retry(attempt) {
                    return Outcome::Failed(t.into_terminal(attempt));
                }
                let delay = inner.config.backoff.delay(job.id, attempt);
                if Instant::now() + delay >= deadline_at {
                    // The retry could not finish in time anyway.
                    return Outcome::Failed(JobError::DeadlineExceeded);
                }
                inner.metrics.retries.fetch_add(1, Ordering::Relaxed);
                thread::sleep(delay);
            }
        }
    }
}

/// One attempt: fault decision, cached compile, execution with panic
/// containment, slowdown injection, and the finished-late deadline check.
fn run_attempt(
    inner: &Inner,
    job: &QueuedJob,
    quota: TenantQuota,
    deadline_at: Instant,
    attempt: u32,
) -> Attempt {
    let fault = inner.config.faults.decide(job.id, attempt);
    if matches!(fault, Some(InjectedFault::CompileFailure)) {
        // Transient infrastructure fault in the compile stage; decided
        // before the cache so a retry actually re-enters the pipeline.
        return Attempt::Transient(Transient::Compile);
    }
    let artifact = match inner.cache.get_or_compile(&job.source) {
        Ok(artifact) => artifact,
        Err(e) => return Attempt::Fatal(JobError::Compile(e.to_string())),
    };

    // The attempt runs right here on the executor thread; `catch_unwind`
    // is the containment boundary that turns a panic into a transient
    // crash instead of killing the executor. Nothing inside is left
    // half-updated by an unwind: the VM and its `Compiled` are private to
    // the attempt, and the shared JIT cache only publishes finished code.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        let started = Instant::now();
        if matches!(fault, Some(InjectedFault::WorkerCrash)) {
            panic!("injected worker crash (job {}, attempt {attempt})", job.id);
        }
        let result = run_sliced(
            &artifact,
            quota,
            deadline_at,
            inner.config.fuel_slice,
            inner.config.jit,
        );
        if let Some(InjectedFault::SlowJob { factor }) = fault {
            // A slow worker takes `factor`× the normal duration. Sleeping
            // past the deadline is pointless (the outcome is already
            // DeadlineExceeded), so the injected slowdown is capped there.
            let extra = started.elapsed().mul_f64(factor - 1.0);
            let room =
                deadline_at.saturating_duration_since(Instant::now()) + Duration::from_micros(100);
            thread::sleep(extra.min(room));
        }
        result
    }));

    match result {
        Err(payload) => Attempt::Transient(Transient::Crash(panic_message(payload.as_ref()))),
        Ok(Ok(_)) if Instant::now() > deadline_at => {
            // Finished, but too late to be useful: badput, not goodput.
            Attempt::Fatal(JobError::DeadlineExceeded)
        }
        Ok(Ok(output)) => Attempt::Done(output),
        Ok(Err(e)) => Attempt::Fatal(e),
    }
}

/// The message carried by a panic payload: `&str` and `String` payloads
/// verbatim, anything else a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deadline preemption by resumable fuel slices: one run whose fuel limit
/// starts at one slice and is raised by one slice at a time, each raise
/// preceded by a wall-clock check. A runaway script is preempted within
/// one slice of fuel past the deadline, and nothing is ever re-executed.
/// When the tenant quota is used up the run ends as one run at the full
/// quota would, so the quota check wins over a deadline reached at the
/// same time.
fn run_sliced(
    artifact: &ProgramArtifact,
    quota: TenantQuota,
    deadline_at: Instant,
    fuel_slice: u64,
    jit: bool,
) -> Result<String, JobError> {
    let fuel_quota = quota.fuel.max(1);
    let slice = fuel_slice.clamp(1, fuel_quota);
    let mut granted = slice;
    let mut past_deadline = false;
    let mut refill = || {
        if granted == fuel_quota {
            return None;
        }
        if Instant::now() >= deadline_at {
            past_deadline = true;
            return None;
        }
        let more = slice.min(fuel_quota - granted);
        granted += more;
        Some(more)
    };
    let compiled = artifact.instantiate();
    let mut vm = Vm::with_limits(Some(slice), Some(quota.memory));
    // The JIT charges fuel and memory bit-identically to the fused VM
    // (test-enforced), so the deadline checks cannot observe which tier
    // ran. Heat (compiled code) lives on the artifact and survives across
    // retries, workers, and requests.
    let run = if jit {
        let engine = Jit::with_shared(
            &compiled,
            JitConfig::default(),
            Some(artifact.facts()),
            artifact.jit_cache().clone(),
        );
        vm.run_with_refill(&compiled, Some(&engine), &mut refill)
    } else {
        vm.run_with_refill(&compiled, None, &mut refill)
    };
    match run {
        Ok(value) => Ok(value.to_string()),
        Err(Error::FuelExhausted { .. }) if past_deadline => Err(JobError::DeadlineExceeded),
        Err(Error::FuelExhausted { .. }) => Err(JobError::FuelQuotaExceeded { budget: fuel_quota }),
        Err(Error::MemoryExhausted { .. }) => Err(JobError::MemoryQuotaExceeded {
            budget: quota.memory,
        }),
        Err(e) => Err(JobError::Script(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            admission_rate: 100_000.0,
            admission_burst: 100_000.0,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn completes_a_simple_script() {
        let service = Service::new(quick_config());
        let handle = service.submit(JobSpec::new(0, "40 + 2")).unwrap();
        match handle.wait() {
            Outcome::Completed {
                output, attempts, ..
            } => {
                assert_eq!(output, "42");
                assert_eq!(attempts, 1);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        let m = service.metrics();
        assert_eq!((m.admitted, m.completed, m.failed), (1, 1, 0));
    }

    #[test]
    fn compile_and_script_errors_are_typed_and_not_retried() {
        let service = Service::new(quick_config());
        let bad_syntax = service.submit(JobSpec::new(0, "let = ;")).unwrap();
        let bad_runtime = service.submit(JobSpec::new(1, "1 + nil")).unwrap();
        assert!(matches!(
            bad_syntax.wait(),
            Outcome::Failed(JobError::Compile(_))
        ));
        assert!(matches!(
            bad_runtime.wait(),
            Outcome::Failed(JobError::Script(_))
        ));
        assert_eq!(service.metrics().retries, 0);
    }

    #[test]
    fn fuel_and_memory_quotas_produce_typed_failures() {
        let mut config = quick_config();
        // This test exercises the *runtime* quota enforcement; static
        // admission would shed the spin job before it ever ran.
        config.static_admission = false;
        config.tenants = vec![
            TenantQuota {
                fuel: 1_000,
                memory: 1 << 20,
            },
            TenantQuota {
                fuel: 5_000_000,
                memory: 1_000,
            },
        ];
        let service = Service::new(config);
        let spin = "let s = 0; for i in range(0, 1000000) { s = s + i; } s";
        let hog = "let a = zeros(100000); len(a)";
        let fuel = service.submit(JobSpec::new(0, spin)).unwrap();
        let mem = service.submit(JobSpec::new(1, hog)).unwrap();
        assert_eq!(
            fuel.wait(),
            Outcome::Failed(JobError::FuelQuotaExceeded { budget: 1_000 })
        );
        assert_eq!(
            mem.wait(),
            Outcome::Failed(JobError::MemoryQuotaExceeded { budget: 1_000 })
        );
    }

    #[test]
    fn unknown_tenant_is_rejected_synchronously() {
        let service = Service::new(quick_config());
        assert_eq!(
            service.submit(JobSpec::new(99, "1")).unwrap_err(),
            Rejected::UnknownTenant
        );
        assert_eq!(service.metrics().rejected_unknown_tenant, 1);
    }

    #[test]
    fn empty_token_bucket_sheds_with_overloaded() {
        let mut config = quick_config();
        config.admission_rate = 0.001; // effectively: the burst and no more
        config.admission_burst = 1.0;
        let service = Service::new(config);
        let first = service.submit(JobSpec::new(0, "1 + 1")).unwrap();
        assert_eq!(
            service.submit(JobSpec::new(0, "1 + 1")).unwrap_err(),
            Rejected::Overloaded
        );
        // Buckets are per tenant: tenant 1 still has its own burst.
        let other = service.submit(JobSpec::new(1, "2 + 2")).unwrap();
        assert!(first.wait().is_completed());
        assert!(other.wait().is_completed());
        assert_eq!(service.metrics().shed_overloaded, 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let mut config = quick_config();
        config.executors = 1;
        config.queue_capacity = 1;
        config.default_deadline = Duration::from_secs(30);
        let service = Service::new(config);
        // Each job burns ~10⁶ VM steps, so submissions outrun the single
        // executor and the one-slot queue must shed.
        let slow = "let s = 0; for i in range(0, 300000) { s = s + i; } s";
        let results: Vec<_> = (0..8)
            .map(|_| service.submit(JobSpec::new(0, slow)))
            .collect();
        let shed = results.iter().filter(|r| r.is_err()).count();
        assert!(shed > 0, "expected at least one Overloaded shed");
        for r in results {
            match r {
                Ok(handle) => assert!(handle.wait().is_completed()),
                Err(rejected) => assert_eq!(rejected, Rejected::Overloaded),
            }
        }
    }

    #[test]
    fn deadline_expired_in_queue_fails_without_executing() {
        let service = Service::new(quick_config());
        let handle = service
            .submit(JobSpec::new(0, "1 + 1").with_deadline(Duration::ZERO))
            .unwrap();
        assert_eq!(handle.wait(), Outcome::Failed(JobError::DeadlineExceeded));
    }

    #[test]
    fn runaway_script_is_preempted_at_the_deadline() {
        let mut config = quick_config();
        // Tiny slices force frequent wall-clock checks; a huge fuel quota
        // means only the deadline can stop this script.
        config.fuel_slice = 1_000;
        config.tenants = vec![TenantQuota {
            fuel: u64::MAX / 4,
            memory: 1 << 20,
        }];
        let service = Service::new(config);
        let spin = "let s = 0; for i in range(0, 100000000) { s = s + i; } s";
        let started = Instant::now();
        let handle = service
            .submit(JobSpec::new(0, spin).with_deadline(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(handle.wait(), Outcome::Failed(JobError::DeadlineExceeded));
        // Preemption must kick in near the deadline, not after the full
        // (effectively unbounded) script. Generous bound for slow CI.
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn jit_preserves_every_outcome_class_of_the_vm_path() {
        // The same job mix must produce byte-identical outcomes whether
        // the executors run the fused VM or the JIT tier: successful
        // output strings, typed script errors, and both quota failures.
        // (Fuel/memory accounting is bit-identical between tiers, so the
        // quota decisions cannot drift either.)
        let jobs: &[(usize, &str)] = &[
            (0, "fn f(x) { return x * x + 1; } f(6) + f(-6)"),
            (0, "let s = \"a\"; s + 1"),
            (1, "let s = 0; for i in range(0, 1000000) { s = s + i; } s"),
            (2, "let a = zeros(100000); len(a)"),
        ];
        let run_all = |jit: bool| -> Vec<Outcome> {
            let mut config = quick_config();
            config.jit = jit;
            config.static_admission = false;
            config.tenants = vec![
                TenantQuota::default(),
                TenantQuota {
                    fuel: 1_000,
                    memory: 1 << 20,
                },
                TenantQuota {
                    fuel: 5_000_000,
                    memory: 1_000,
                },
            ];
            let service = Service::new(config);
            let handles: Vec<JobHandle> = jobs
                .iter()
                .map(|(tenant, src)| service.submit(JobSpec::new(*tenant, *src)).unwrap())
                .collect();
            handles.iter().map(JobHandle::wait).collect()
        };
        let with_vm = run_all(false);
        let with_jit = run_all(true);
        assert!(
            matches!(&with_jit[0], Outcome::Completed { output, .. } if output == "74"),
            "{:?}",
            with_jit[0]
        );
        assert!(matches!(&with_jit[1], Outcome::Failed(JobError::Script(_))));
        assert_eq!(
            with_jit[2],
            Outcome::Failed(JobError::FuelQuotaExceeded { budget: 1_000 })
        );
        assert_eq!(
            with_jit[3],
            Outcome::Failed(JobError::MemoryQuotaExceeded { budget: 1_000 })
        );
        for (i, (vm_outcome, jit_outcome)) in with_vm.iter().zip(&with_jit).enumerate() {
            match (vm_outcome, jit_outcome) {
                (Outcome::Completed { output: a, .. }, Outcome::Completed { output: b, .. }) => {
                    assert_eq!(a, b, "job {i} output diverged")
                }
                (Outcome::Failed(a), Outcome::Failed(b)) => {
                    assert_eq!(a, b, "job {i} error diverged");
                }
                other => panic!("job {i} outcome class diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn jit_runaway_script_is_preempted_at_the_deadline() {
        // Deadline preemption rides on fuel slicing; the JIT charges fuel
        // bit-identically, so a runaway script on the JIT tier must be
        // preempted exactly like on the VM (the deadline is the only
        // bound the huge fuel quota leaves).
        let mut config = quick_config();
        config.jit = true;
        config.fuel_slice = 1_000;
        config.tenants = vec![TenantQuota {
            fuel: u64::MAX / 4,
            memory: 1 << 20,
        }];
        let service = Service::new(config);
        let spin = "let s = 0; for i in range(0, 100000000) { s = s + i; } s";
        let started = Instant::now();
        let handle = service
            .submit(JobSpec::new(0, spin).with_deadline(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(handle.wait(), Outcome::Failed(JobError::DeadlineExceeded));
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn jit_heat_is_shared_across_slices_and_executions() {
        // One artifact owns one shared JIT cache. An execution is one run
        // that pauses every 50 fuel for a deadline check and resumes in
        // place, so code compiled in an early slice keeps running in the
        // later ones; the first execution publishes it and later
        // executions start hot.
        let artifact = ProgramArtifact::compile(
            "fn f(x) { return x * 2; } let s = 0; for i in range(0, 50) { s = s + f(i); } s",
        )
        .unwrap();
        assert!(artifact.jit_cache().is_empty());
        let quota = TenantQuota::default();
        let deadline = Instant::now() + Duration::from_secs(5);
        let first = run_sliced(&artifact, quota, deadline, 50, true).unwrap();
        assert_eq!(first, "2450");
        let heated = artifact.jit_cache().len();
        assert!(heated >= 1, "no compiled code published");
        let second = run_sliced(&artifact, quota, deadline, 50, true).unwrap();
        assert_eq!(second, first);
        assert_eq!(
            artifact.jit_cache().len(),
            heated,
            "second execution re-published instead of reusing"
        );
    }

    #[test]
    fn sliced_runs_end_as_one_run_at_the_quota() {
        // A run sliced into 7-fuel pieces must end exactly like one run at
        // the whole quota: the same value when the quota suffices, and
        // FuelQuotaExceeded (never DeadlineExceeded) when it does not.
        let artifact =
            ProgramArtifact::compile("let s = 0; for i in range(0, 200) { s = s + i; } s").unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        let needed = (1..5_000)
            .find(|&fuel| Vm::with_fuel(fuel).run(&artifact.instantiate()).is_ok())
            .expect("the loop finishes within 5 000 fuel");
        for (fuel, jit) in [
            (needed, false),
            (needed, true),
            (needed - 1, false),
            (needed - 1, true),
        ] {
            let quota = TenantQuota {
                fuel,
                memory: 1 << 20,
            };
            let got = run_sliced(&artifact, quota, deadline, 7, jit);
            if fuel == needed {
                assert_eq!(got, Ok("19900".to_string()), "jit={jit}");
            } else {
                assert_eq!(
                    got,
                    Err(JobError::FuelQuotaExceeded { budget: fuel }),
                    "jit={jit}"
                );
            }
        }
        // Past the deadline, the first slice boundary below the quota stops
        // the run.
        let quota = TenantQuota {
            fuel: needed,
            memory: 1 << 20,
        };
        let expired = Instant::now();
        assert_eq!(
            run_sliced(&artifact, quota, expired, 7, false),
            Err(JobError::DeadlineExceeded)
        );
    }

    #[test]
    fn transient_crashes_are_retried_to_success() {
        let mut config = quick_config();
        config.faults = FaultPlan {
            crash_prob: 0.4,
            ..FaultPlan::none(7)
        };
        config.backoff = BackoffPolicy {
            max_attempts: 6,
            base: 0.0002,
            cap: 0.002,
            seed: 7,
        };
        let service = Service::new(config);
        let handles: Vec<_> = (0..20)
            .map(|i| {
                service
                    .submit(JobSpec::new(i % 4, format!("{i} * 2")))
                    .unwrap()
            })
            .collect();
        let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        let completed = outcomes.iter().filter(|o| o.is_completed()).count();
        // With crash probability 0.4 and 6 attempts, failure needs six
        // crashes in a row (p ≈ 0.4 %); the plan is deterministic, and for
        // this seed every job recovers.
        assert_eq!(completed, 20, "outcomes: {outcomes:?}");
        let retried = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Completed { attempts, .. } if *attempts > 1))
            .count();
        assert!(
            retried > 0,
            "seed 7 should crash at least one first attempt"
        );
        assert!(service.metrics().retries > 0);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_worker_crash() {
        let mut config = quick_config();
        config.faults = FaultPlan {
            crash_prob: 1.0,
            ..FaultPlan::none(11)
        };
        config.backoff = BackoffPolicy {
            max_attempts: 3,
            base: 0.0001,
            cap: 0.001,
            seed: 11,
        };
        config.breaker_threshold = u32::MAX; // keep the breaker out of this test
        let service = Service::new(config);
        let handle = service.submit(JobSpec::new(0, "1 + 1")).unwrap();
        match handle.wait() {
            Outcome::Failed(JobError::WorkerCrash { attempts, message }) => {
                assert_eq!(attempts, 3);
                assert!(message.contains("injected worker crash"), "{message}");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn compile_faults_are_transient_and_typed() {
        let mut config = quick_config();
        config.faults = FaultPlan {
            compile_fail_prob: 1.0,
            ..FaultPlan::none(13)
        };
        config.backoff = BackoffPolicy {
            max_attempts: 2,
            base: 0.0001,
            cap: 0.001,
            seed: 13,
        };
        config.breaker_threshold = u32::MAX;
        let service = Service::new(config);
        let handle = service.submit(JobSpec::new(0, "1 + 1")).unwrap();
        assert_eq!(
            handle.wait(),
            Outcome::Failed(JobError::CompileFault { attempts: 2 })
        );
        // The injected fault fired before compilation: nothing was cached.
        assert_eq!(service.cache_stats().misses, 0);
    }

    #[test]
    fn breaker_trips_rejects_then_admits_a_probe() {
        let mut config = quick_config();
        config.faults = FaultPlan {
            crash_prob: 1.0,
            ..FaultPlan::none(17)
        };
        config.backoff = BackoffPolicy::none();
        config.breaker_threshold = 2;
        config.breaker_cooldown = Duration::from_millis(40);
        let service = Service::new(config);
        // Two crashing jobs trip tenant 0's breaker...
        for _ in 0..2 {
            let h = service.submit(JobSpec::new(0, "1 + 1")).unwrap();
            assert!(!h.wait().is_completed());
        }
        assert!(matches!(
            service.breaker_state(0),
            Some(BreakerState::Open { .. })
        ));
        // ...so the next submission is rejected, while tenant 1 sails on
        // (its own breaker is closed; its jobs crash but are admitted).
        assert_eq!(
            service.submit(JobSpec::new(0, "1 + 1")).unwrap_err(),
            Rejected::CircuitOpen
        );
        assert!(service.submit(JobSpec::new(1, "1 + 1")).is_ok());
        // After the cooldown one probe is admitted; it crashes, so the
        // breaker re-opens.
        thread::sleep(Duration::from_millis(60));
        let probe = service.submit(JobSpec::new(0, "1 + 1")).unwrap();
        assert!(!probe.wait().is_completed());
        assert!(matches!(
            service.breaker_state(0),
            Some(BreakerState::Open { .. })
        ));
        assert!(service.metrics().rejected_circuit_open >= 1);
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_rejects_new_ones() {
        let mut config = quick_config();
        config.executors = 1;
        config.queue_capacity = 16;
        config.default_deadline = Duration::from_secs(30);
        let service = Service::new(config);
        let slow = "let s = 0; for i in range(0, 300000) { s = s + i; } s";
        let handles: Vec<_> = (0..6)
            .filter_map(|_| service.submit(JobSpec::new(0, slow)).ok())
            .collect();
        service.shutdown();
        assert_eq!(
            service.submit(JobSpec::new(0, "1")).unwrap_err(),
            Rejected::ShuttingDown
        );
        // Every admitted job still resolves: executed or cancelled.
        let mut cancelled = 0;
        for h in &handles {
            match h.wait() {
                Outcome::Completed { .. } => {}
                Outcome::Failed(JobError::Cancelled) => cancelled += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let m = service.metrics();
        assert_eq!(m.cancelled, cancelled);
        assert_eq!(m.completed + m.failed + m.cancelled, m.admitted);
        // Shutdown is idempotent.
        service.shutdown();
    }

    #[test]
    fn statically_infeasible_jobs_shed_before_queue_and_compile() {
        let mut config = quick_config();
        config.tenants = vec![
            TenantQuota {
                fuel: 1_000,
                memory: 1 << 20,
            },
            TenantQuota::default(),
        ];
        let service = Service::new(config);
        // Static lower bound ≈ 2·10⁴ ≫ 1 000: provably infeasible for
        // tenant 0, comfortably feasible (and fast) for tenant 1.
        let spin = "let s = 0; for i in range(0, 10000) { s = s + i; } s";
        match service.submit(JobSpec::new(0, spin)) {
            Err(Rejected::StaticallyInfeasible { required, budget }) => {
                assert!(required >= 20_000, "{required}");
                assert_eq!(budget, 1_000);
            }
            other => panic!("expected static shed, got {other:?}"),
        }
        // Zero downstream cost: nothing admitted, nothing compiled.
        let m = service.metrics();
        assert_eq!(m.admitted, 0);
        assert_eq!(m.rejected_statically_infeasible, 1);
        assert_eq!(service.cache_stats().misses, 0);
        // The same source is feasible under tenant 1's default quota.
        let ok = service.submit(JobSpec::new(1, spin)).unwrap();
        assert!(ok.wait().is_completed());
        // A provably non-terminating program is shed for *any* finite
        // quota, reported as `required = u64::MAX`.
        match service.submit(JobSpec::new(1, "while true { let x = 1; x; }")) {
            Err(Rejected::StaticallyInfeasible { required, .. }) => {
                assert_eq!(required, u64::MAX);
            }
            other => panic!("expected divergence shed, got {other:?}"),
        }
    }

    #[test]
    fn static_admission_passes_unparseable_and_feasible_jobs_through() {
        let service = Service::new(quick_config());
        // Unparseable source is not shed statically: the compile stage owns
        // that failure and reports it with its usual typed outcome.
        let bad = service.submit(JobSpec::new(0, "let = ;")).unwrap();
        assert!(matches!(bad.wait(), Outcome::Failed(JobError::Compile(_))));
        // A cheap feasible job sails through with admission on.
        let ok = service.submit(JobSpec::new(0, "40 + 2")).unwrap();
        match ok.wait() {
            Outcome::Completed { output, .. } => assert_eq!(output, "42"),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(service.metrics().rejected_statically_infeasible, 0);
    }

    #[test]
    fn static_admission_off_falls_back_to_runtime_enforcement() {
        let mut config = quick_config();
        config.static_admission = false;
        config.tenants = vec![TenantQuota {
            fuel: 1_000,
            memory: 1 << 20,
        }];
        let service = Service::new(config);
        let spin = "let s = 0; for i in range(0, 1000000) { s = s + i; } s";
        let handle = service.submit(JobSpec::new(0, spin)).unwrap();
        assert_eq!(
            handle.wait(),
            Outcome::Failed(JobError::FuelQuotaExceeded { budget: 1_000 })
        );
        assert_eq!(service.metrics().rejected_statically_infeasible, 0);
    }

    #[test]
    fn repeated_submissions_share_one_compilation() {
        let service = Service::new(quick_config());
        let src = "let s = 0; for i in range(0, 100) { s = s + i; } s";
        let handles: Vec<_> = (0..12)
            .map(|i| service.submit(JobSpec::new(i % 4, src)).unwrap())
            .collect();
        for h in handles {
            match h.wait() {
                Outcome::Completed { output, .. } => assert_eq!(output, "4950"),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 11, "{stats:?}");
    }

    #[test]
    fn static_admission_memo_stays_within_the_cache_capacity() {
        // The memo of static fuel bounds is capped at the program cache's
        // capacity; dropping entries must never change a decision, so a
        // second pass over the same programs (whose entries were evicted
        // long ago) must shed exactly the same jobs.
        const CAPACITY: usize = 8;
        let mut config = quick_config();
        config.program_cache_capacity = CAPACITY;
        // Admitted jobs whose run outgrows the quota fail; keep the breaker
        // from turning those into CircuitOpen rejections.
        config.breaker_threshold = u32::MAX;
        config.tenants = vec![TenantQuota {
            fuel: 1_000,
            memory: 1 << 20,
        }];
        let service = Service::new(config);
        let sources: Vec<String> = (0..CAPACITY + 50)
            .map(|i| {
                format!(
                    "let s = 0; for i in range(0, {}) {{ s = s + i; }} s",
                    i * 20
                )
            })
            .collect();
        let decide = |src: &String| match service.submit(JobSpec::new(0, src.as_str())) {
            Ok(handle) => {
                // Admitted: it runs to some terminal outcome (a bound below
                // the quota does not promise the run fits in it).
                handle.wait();
                None
            }
            Err(Rejected::StaticallyInfeasible { required, budget }) => Some((required, budget)),
            Err(other) => panic!("unexpected rejection {other:?} for {src}"),
        };
        let first: Vec<_> = sources.iter().map(decide).collect();
        assert!(service.inner.static_costs.lock().unwrap().len() <= CAPACITY);
        let second: Vec<_> = sources.iter().map(decide).collect();
        assert!(service.inner.static_costs.lock().unwrap().len() <= CAPACITY);
        assert_eq!(first, second);
        // Every decision is the one the analysis itself gives, and the mix
        // holds both outcomes.
        for (src, decision) in sources.iter().zip(&first) {
            let lo = program::static_fuel_lower_bound(src).expect("parses");
            assert_eq!(*decision, (lo > 1_000).then_some((lo, 1_000)), "{src}");
        }
        let shed = first.iter().filter(|d| d.is_some()).count();
        assert!(shed > 0 && shed < sources.len(), "shed {shed}");
    }

    #[test]
    fn program_cache_capacity_bounds_distinct_program_churn() {
        let mut config = quick_config();
        config.program_cache_capacity = 3;
        let service = Service::new(config);
        for i in 0..10 {
            let handle = service
                .submit(JobSpec::new(0, format!("{i} + {i}")))
                .unwrap();
            match handle.wait() {
                Outcome::Completed { output, .. } => assert_eq!(output, format!("{}", 2 * i)),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 10, "{stats:?}");
        assert_eq!(stats.evictions, 7, "{stats:?}");
    }
}
