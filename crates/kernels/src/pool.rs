//! Persistent work-stealing thread pool — the runtime under every parallel
//! kernel variant in this crate.
//!
//! # Architecture
//!
//! * One lazily-created pool per requested worker count, leaked into
//!   `'static` storage via [`sized`] (the count of distinct sizes in a
//!   process is small and bounded, so the leak is bounded too). `global`
//!   returns the pool sized to [`crate::par::default_threads`].
//! * Each worker owns a deque used in Chase–Lev discipline: the owner
//!   pushes and pops at the **back** (LIFO, cache-hot), thieves and the
//!   injector drain from the **front** (FIFO, oldest-first — steals grab
//!   the biggest remaining subtree of a fork-join recursion). The deques
//!   here are `Mutex<VecDeque>` rather than lock-free ring buffers — the
//!   vendored dependency set has no atomic deque, and kernel granularity
//!   is far above the nanoseconds a CAS loop would save — but the stealing
//!   *discipline* (LIFO local pop, FIFO steal, global FIFO injector) is
//!   exactly the classic one.
//! * Idle workers park on a condvar guarded by an epoch counter so a
//!   wakeup between "checked for work" and "went to sleep" is never lost;
//!   a 10 ms timed wait backstops any missed notify.
//! * [`join`] runs two closures as a fork-join pair: `b` is pushed to the
//!   local deque (stealable), `a` runs inline, and the owner *leapfrogs*
//!   while waiting for `b` — executing its own queued jobs and stealing
//!   others' rather than blocking. Panics in either side are captured and
//!   re-raised at the join point; a worker never dies from a job panic.
//!
//! # Determinism
//!
//! The pool schedules *where* work runs, never *what* it computes: every
//! helper here ([`join`], [`Pool::parallel_for`], [`Pool::run_tasks`])
//! partitions the index space as a pure function of its arguments, so a
//! deterministic kernel body produces bitwise-identical results for any
//! worker count and any steal interleaving. The compatibility shims in
//! [`crate::par`] rely on this to keep reductions reproducible.

// The crate denies unsafe code; this module is the one audited exception.
// The only unsafe here is the classic stack-job lifetime erasure: a job's
// closure lives on the forking caller's stack, a type-erased pointer to it
// is queued, and the caller's stack frame provably outlives execution
// because `join`/`run` block until the job's latch completes.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A type-erased pointer to a [`StackJob`] living on some caller's stack.
///
/// Safety contract: the caller that created the job blocks until the job's
/// latch is completed, so the pointee outlives every dereference.
struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: the pointee is a `StackJob` whose closure is `Send` and whose
// latch is `Sync`; the pointer is only dereferenced once, by whichever
// thread executes the job.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Executes the job. Each `JobRef` must be executed exactly once.
    fn execute(self) {
        // SAFETY: per the JobRef contract the pointee is alive and this is
        // the single execution of this reference.
        unsafe { (self.execute_fn)(self.data) }
    }
}

/// Result slot + completion flag for one job, shared between the forking
/// thread and whoever executes the job.
enum JobState<R> {
    Pending,
    Done(R),
    Panicked(Box<dyn Any + Send>),
    Taken,
}

struct Latch<R> {
    state: Mutex<JobState<R>>,
    cond: Condvar,
}

impl<R> Latch<R> {
    fn new() -> Self {
        Latch {
            state: Mutex::new(JobState::Pending),
            cond: Condvar::new(),
        }
    }

    fn complete(&self, outcome: Result<R, Box<dyn Any + Send>>) {
        let mut st = self.state.lock().unwrap();
        *st = match outcome {
            Ok(r) => JobState::Done(r),
            Err(p) => JobState::Panicked(p),
        };
        self.cond.notify_all();
    }

    fn is_done(&self) -> bool {
        !matches!(*self.state.lock().unwrap(), JobState::Pending)
    }

    /// Blocks until the job completes.
    fn wait(&self) {
        let mut st = self.state.lock().unwrap();
        while matches!(*st, JobState::Pending) {
            st = self.cond.wait(st).unwrap();
        }
    }

    /// Waits at most `dur`; returns whether the job has completed.
    fn wait_timeout(&self, dur: Duration) -> bool {
        let mut st = self.state.lock().unwrap();
        if !matches!(*st, JobState::Pending) {
            return true;
        }
        let (guard, _) = self.cond.wait_timeout(st, dur).unwrap();
        st = guard;
        !matches!(*st, JobState::Pending)
    }

    /// Takes the completed result, re-raising a captured panic.
    fn take(&self) -> R {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, JobState::Taken) {
            JobState::Done(r) => r,
            JobState::Panicked(p) => {
                drop(st);
                resume_unwind(p)
            }
            JobState::Pending => unreachable!("take() called before completion"),
            JobState::Taken => unreachable!("job result taken twice"),
        }
    }

    /// Takes the result without unwinding, for join's panic arbitration.
    fn take_result(&self) -> Result<R, Box<dyn Any + Send>> {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, JobState::Taken) {
            JobState::Done(r) => Ok(r),
            JobState::Panicked(p) => Err(p),
            JobState::Pending => unreachable!("take_result() called before completion"),
            JobState::Taken => unreachable!("job result taken twice"),
        }
    }
}

/// A job whose closure lives on the forking caller's stack.
struct StackJob<F, R> {
    func: Mutex<Option<F>>,
    latch: Latch<R>,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(f: F) -> Self {
        StackJob {
            func: Mutex::new(Some(f)),
            latch: Latch::new(),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            data: (self as *const Self).cast(),
            execute_fn: execute_stack_job::<F, R>,
        }
    }
}

/// Runs the closure of the pointed-to [`StackJob`] and completes its latch.
///
/// # Safety
/// `data` must point to a live `StackJob<F, R>` whose closure has not yet
/// been taken; the forking caller must keep it alive until the latch
/// completes (which this function guarantees happens before returning).
unsafe fn execute_stack_job<F, R>(data: *const ())
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    let job = &*data.cast::<StackJob<F, R>>();
    let f = job
        .func
        .lock()
        .unwrap()
        .take()
        .expect("stack job executed twice");
    let outcome = catch_unwind(AssertUnwindSafe(f));
    job.latch.complete(outcome);
}

/// State shared by a pool's workers and its clients.
struct Shared {
    /// Global FIFO queue for jobs injected from outside the pool.
    injector: Mutex<VecDeque<JobRef>>,
    /// One deque per worker: owner pushes/pops back, thieves pop front.
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    /// Parking lot for idle workers.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Bumped on every job publication; lets a would-be sleeper detect a
    /// publication that raced with its "no work found" scan.
    epoch: AtomicU64,
    /// Number of workers currently inside `park` (fast-path skip for
    /// `notify` when nobody is asleep).
    sleepers: AtomicUsize,
}

impl Shared {
    fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_all();
        }
    }

    fn inject(&self, job: JobRef) {
        self.injector.lock().unwrap().push_back(job);
        self.notify();
    }

    fn push_local(&self, worker: usize, job: JobRef) {
        self.deques[worker].lock().unwrap().push_back(job);
        self.notify();
    }

    /// Owner-side LIFO pop from the worker's own deque.
    fn pop_local(&self, worker: usize) -> Option<JobRef> {
        self.deques[worker].lock().unwrap().pop_back()
    }

    /// Steal attempt: injector first (oldest external work), then the other
    /// workers' deque fronts, scanning round-robin from `worker + 1`.
    fn steal(&self, worker: usize) -> Option<JobRef> {
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (worker + k) % n;
            if let Some(job) = self.deques[victim].lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Parks the calling worker until the epoch moves past `epoch_before`
    /// or the 10 ms backstop fires.
    fn park(&self, epoch_before: u64) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.sleep.lock().unwrap();
        if self.epoch.load(Ordering::SeqCst) == epoch_before {
            let _ = self.wake.wait_timeout(guard, Duration::from_millis(10));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

thread_local! {
    /// Set for the lifetime of a worker thread: which pool it belongs to
    /// and its worker index. `None` on every non-pool thread.
    static WORKER: Cell<Option<(&'static Shared, usize)>> = const { Cell::new(None) };
}

fn worker_loop(shared: &'static Shared, index: usize) {
    WORKER.with(|w| w.set(Some((shared, index))));
    loop {
        let epoch = shared.epoch.load(Ordering::SeqCst);
        if let Some(job) = shared.pop_local(index).or_else(|| shared.steal(index)) {
            job.execute();
        } else {
            shared.park(epoch);
        }
    }
}

/// A persistent work-stealing pool with a fixed worker count.
///
/// Obtain one through [`sized`]; pools live for the process
/// lifetime and are shared by every caller requesting the same size.
pub struct Pool {
    shared: &'static Shared,
    threads: usize,
}

impl Pool {
    fn create(threads: usize) -> Pool {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
        }));
        for i in 0..threads {
            std::thread::Builder::new()
                .name(format!("rcr-pool-{threads}-{i}"))
                .spawn(move || worker_loop(shared, i))
                .expect("spawn pool worker");
        }
        Pool { shared, threads }
    }

    /// The number of worker threads in this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` on this pool and blocks until it returns, re-raising any
    /// panic. Called from one of this pool's own workers, `f` runs inline
    /// (preventing self-deadlock on small pools); otherwise it is injected
    /// and the calling thread waits on the completion latch.
    pub fn run<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce() -> R + Send,
    {
        let here = WORKER.with(|w| w.get());
        if let Some((shared, _)) = here {
            if std::ptr::eq(shared, self.shared) {
                return f();
            }
        }
        let job = StackJob::new(f);
        self.shared.inject(job.as_job_ref());
        job.latch.wait();
        job.latch.take()
    }

    /// Fork-join `parallel_for` with adaptive splitting: the range splits
    /// in half down to `grain` indices per leaf, and each split's right
    /// half is stealable. Splitting is *lazy* — halves that are never
    /// stolen run inline on the owner with no further queue traffic.
    ///
    /// The leaf partition depends only on `(n, grain)`, never on steals,
    /// so deterministic bodies give identical results at any pool size.
    pub fn parallel_for<F>(&self, n: usize, grain: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        self.run(|| parallel_for_rec(0, n, grain, &body));
    }

    /// Runs `f(0), f(1), …, f(k - 1)` as a balanced fork-join task tree
    /// and blocks until all complete. The shims in [`crate::par`] use this
    /// to give each of `k` logical tasks a contiguous slice of work.
    pub fn run_tasks<F>(&self, k: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if k == 0 {
            return;
        }
        self.run(|| run_tasks_rec(0, k, &f));
    }
}

fn parallel_for_rec<F>(start: usize, end: usize, grain: usize, body: &F)
where
    F: Fn(usize, usize) + Sync,
{
    if end - start <= grain {
        body(start, end);
        return;
    }
    let mid = start + (end - start) / 2;
    join(
        || parallel_for_rec(start, mid, grain, body),
        || parallel_for_rec(mid, end, grain, body),
    );
}

fn run_tasks_rec<F>(lo: usize, hi: usize, f: &F)
where
    F: Fn(usize) + Sync,
{
    if hi - lo == 1 {
        f(lo);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    join(|| run_tasks_rec(lo, mid, f), || run_tasks_rec(mid, hi, f));
}

/// Global registry of pools, keyed by worker count. Each distinct size is
/// created once and leaked; the set of sizes in a process is small (default
/// threads plus whatever an experiment sweeps), so the leak is bounded.
static REGISTRY: Mutex<Vec<(usize, &'static Pool)>> = Mutex::new(Vec::new());

/// Returns the process-wide pool with exactly `threads` workers, creating
/// it on first use. `threads` is clamped to `1..=256`.
pub fn sized(threads: usize) -> &'static Pool {
    let threads = threads.clamp(1, 256);
    let mut reg = REGISTRY.lock().unwrap();
    if let Some(&(_, pool)) = reg.iter().find(|&&(t, _)| t == threads) {
        return pool;
    }
    let pool: &'static Pool = Box::leak(Box::new(Pool::create(threads)));
    reg.push((threads, pool));
    pool
}

/// The default pool, sized to [`crate::par::default_threads`] (which
/// honours the `RCR_THREADS` override).
fn global() -> &'static Pool {
    sized(crate::par::default_threads())
}

/// Runs `a` and `b` as a fork-join pair, potentially in parallel, and
/// returns both results. `b` is made stealable; `a` runs on the calling
/// thread. While waiting for a stolen `b`, the caller executes other
/// pool jobs instead of blocking ("leapfrogging").
///
/// Callable from anywhere: on a non-pool thread the whole pair is moved
/// onto the default pool first, so nested kernel code never needs to know
/// whether it is already inside the pool.
///
/// # Panics
/// Re-raises a panic from either closure at the join point. If both
/// panic, `a`'s payload wins (matching rayon's contract).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match WORKER.with(|w| w.get()) {
        Some((shared, index)) => join_worker(shared, index, a, b),
        None => global().run(|| join(a, b)),
    }
}

fn join_worker<A, B, RA, RB>(shared: &'static Shared, index: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let b_job = StackJob::new(b);
    shared.push_local(index, b_job.as_job_ref());

    let ra = catch_unwind(AssertUnwindSafe(a));

    // Wait for b, doing useful work instead of blocking. Note we may pop
    // and execute jobs pushed *above* b by `a`'s own nested joins — that's
    // the LIFO discipline working as intended.
    while !b_job.latch.is_done() {
        if let Some(job) = shared.pop_local(index).or_else(|| shared.steal(index)) {
            job.execute();
        } else {
            b_job.latch.wait_timeout(Duration::from_millis(1));
        }
    }

    let rb = b_job.latch.take_result();
    match (ra, rb) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(pa), _) => resume_unwind(pa),
        (_, Err(pb)) => resume_unwind(pb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_computes_both_sides() {
        let (a, b) = join(|| 2 + 2, || "b".to_string());
        assert_eq!(a, 4);
        assert_eq!(b, "b");
    }

    #[test]
    fn sized_pools_have_requested_width() {
        assert_eq!(sized(3).threads(), 3);
        assert_eq!(sized(1).threads(), 1);
        // Same size -> same pool instance.
        assert!(std::ptr::eq(sized(3), sized(3)));
        // Degenerate sizes clamp.
        assert_eq!(sized(0).threads(), 1);
    }

    #[test]
    fn parallel_for_covers_range_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        for n in [0usize, 1, 7, 1000] {
            for grain in [1usize, 3, 64, 10_000] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                global().parallel_for(n, grain, |s, e| {
                    for h in &hits[s..e] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "n = {n}, grain = {grain}"
                );
            }
        }
    }

    #[test]
    fn run_tasks_runs_each_index_once() {
        use std::sync::atomic::AtomicUsize;
        for k in [1usize, 2, 5, 16] {
            let hits: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
            sized(4).run_tasks(k, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "k = {k}"
            );
        }
        sized(4).run_tasks(0, |_| panic!("no tasks expected"));
    }

    #[test]
    fn nested_join_recursion_sums_correctly() {
        fn tree_sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| tree_sum(lo, mid), || tree_sum(mid, hi));
            a + b
        }
        let n = 1u64 << 14;
        assert_eq!(tree_sum(0, n), n * (n - 1) / 2);
    }

    #[test]
    fn nested_join_stress_from_many_external_threads() {
        // Hammer the steal path: 8 external threads all drive fork-join
        // recursions through the same small pool simultaneously.
        let pool = sized(2);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                scope.spawn(move || {
                    for round in 0..20u64 {
                        let n = 512 + t * 37 + round;
                        let total = pool.run(|| {
                            fn rec(lo: u64, hi: u64) -> u64 {
                                if hi - lo <= 16 {
                                    return (lo..hi).map(|i| i ^ 0x5a).sum();
                                }
                                let mid = lo + (hi - lo) / 2;
                                let (a, b) = join(|| rec(lo, mid), || rec(mid, hi));
                                a + b
                            }
                            rec(0, n)
                        });
                        let expect: u64 = (0..n).map(|i| i ^ 0x5a).sum();
                        assert_eq!(total, expect, "t = {t}, round = {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn panic_in_a_propagates_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| join(|| panic!("boom-a"), || 1)));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom-a");
        // Pool still fully usable afterwards.
        let (x, y) = join(|| 1, || 2);
        assert_eq!((x, y), (1, 2));
    }

    #[test]
    fn panic_in_b_propagates_and_pool_survives() {
        let caught = catch_unwind(AssertUnwindSafe(|| join(|| 1, || panic!("boom-b"))));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "boom-b");
        let (x, y) = join(|| 3, || 4);
        assert_eq!((x, y), (3, 4));
    }

    #[test]
    fn both_sides_panic_a_payload_wins() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join::<_, _, (), ()>(|| panic!("first"), || panic!("second"))
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "first");
        assert_eq!(join(|| 5, || 6), (5, 6));
    }

    #[test]
    fn run_from_inside_pool_executes_inline() {
        // A 1-worker pool would deadlock if nested `run` re-injected; the
        // inline fast path must kick in instead.
        let pool = sized(1);
        let v = pool.run(|| pool.run(|| pool.run(|| 42)));
        assert_eq!(v, 42);
    }

    #[test]
    fn parallel_for_is_deterministic_across_pool_sizes() {
        let compute = |pool: &Pool| {
            let n = 10_000usize;
            let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.parallel_for(n, 32, |s, e| {
                for (i, slot) in slots.iter().enumerate().take(e).skip(s) {
                    let v = ((i as f64) + 0.5).sqrt().sin();
                    slot.store(v.to_bits(), Ordering::Relaxed);
                }
            });
            let mut sum = 0.0f64;
            for s in &slots {
                sum += f64::from_bits(s.load(Ordering::Relaxed));
            }
            sum.to_bits()
        };
        let a = compute(sized(1));
        let b = compute(sized(2));
        let c = compute(sized(4));
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}
