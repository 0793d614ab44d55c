//! `serve_hot` and `serve_cold`: ResearchScript jobs submitted to
//! `rcr-serve` by a closed loop with a fixed number of outstanding jobs.
//!
//! `serve_hot` cycles a small mix of compute kernels, so after set-up
//! every lookup hits the program cache and the time goes to execution.
//! `serve_cold` submits a distinct generated program every time, so every
//! lookup misses and the time goes to the front end (parse, optimize,
//! abstract interpretation, compile), which runs twice per program: once
//! for static admission and once for the compile.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rcr_core::{absintstudy, lintstudy};
use rcr_minilang::jit::{Jit, JitConfig};
use rcr_minilang::vm::Vm;
use rcr_minilang::{absint, bytecode, optimize, parser, peephole, run_source_vm_fused};
use rcr_serve::{
    static_fuel_lower_bound, CacheStats, JobSpec, MetricsSnapshot, Outcome, ProgramArtifact,
    Service, ServiceConfig, TenantQuota,
};

use crate::stats::{mean, median, summarize};
use crate::trace::Tracer;
use crate::{Fnv, Report, RunArgs};

/// Jobs kept outstanding by the closed loop.
pub const OUTSTANDING: usize = 4;
/// Executor threads of the service under test.
const EXECUTORS: usize = 2;
/// Template instances concatenated into one `serve_cold` program.
const PARTS_PER_COLD_PROGRAM: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Which serving workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated compute kernels: cache hits, execution-bound.
    Hot,
    /// Distinct programs: cache misses, front-end-bound.
    Cold,
}

/// The program stream a workload submits.
pub struct Programs {
    kind: Kind,
    seed: u64,
    /// `Hot`: the distinct kernels; `Cold`: unused.
    mix: Vec<String>,
    /// `Hot`: the submission order over `mix`, repeated.
    order: Vec<usize>,
}

impl Programs {
    /// The stream for `kind`, generated from `seed` alone.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E_0001);
        let (mix, order) = match kind {
            Kind::Hot => {
                let mix = hot_mix(&mut rng);
                let mut order: Vec<usize> = (0..40).map(|i| i % mix.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                (mix, order)
            }
            Kind::Cold => (Vec::new(), Vec::new()),
        };
        Programs {
            kind,
            seed,
            mix,
            order,
        }
    }

    /// Source of job `i`.
    pub fn source(&self, i: usize) -> String {
        match self.kind {
            Kind::Hot => self.mix[self.order[i % self.order.len()]].clone(),
            Kind::Cold => cold_program(self.seed, i),
        }
    }

    /// Distinct programs a warm-up should run before timing: the whole mix
    /// for `Hot` (compile and JIT tier-up happen in set-up), a few
    /// programs outside the timed index range for `Cold`.
    fn warmup_sources(&self) -> Vec<String> {
        match self.kind {
            Kind::Hot => self.mix.clone(),
            Kind::Cold => (0..64)
                .map(|i| cold_program(self.seed ^ 0xC01D, i))
                .collect(),
        }
    }

    /// FNV-1a over the first `n` job sources (the input fingerprint).
    pub fn fingerprint(&self, n: usize, h: &mut Fnv) {
        for i in 0..n {
            h.bytes(self.source(i).as_bytes());
        }
    }
}

/// The `serve_hot` mix: the E22 perf-gap kernels (dot, saxpy, Monte-Carlo
/// π, matmul) plus an allocating array script, each sized to run for a
/// few milliseconds on the JIT tier. The seed draws the data constants,
/// not the sizes, so every seed's mix costs the same to run.
fn hot_mix(rng: &mut StdRng) -> Vec<String> {
    let mut c = || rng.gen_range(1u32..10) as f64 * 0.125;
    let (c1, c2, c3, c4, c5) = (c(), c(), c(), c(), c());
    let lcg = 10_000 + rng.gen_range(0u32..10_000);
    vec![
        format!(
            "let n = 20000;\nlet a = zeros(n);\nlet b = zeros(n);\nfor i in range(0, n) {{\n  a[i] = (i % 7) * {c1};\n  b[i] = ((i % 5) + 1) * {c2};\n}}\nfn dot(a, b, n) {{\n  let acc = 0;\n  for i in range(0, n) {{ acc = acc + a[i] * b[i]; }}\n  return acc;\n}}\nlet r = dot(a, b, n);\nr"
        ),
        format!(
            "let n = 20000;\nlet x = zeros(n);\nlet y = zeros(n);\nfor i in range(0, n) {{\n  x[i] = (i % 7) * {c3};\n  y[i] = ((i % 5) + 1) * 0.5;\n}}\nfor i in range(0, n) {{ y[i] = y[i] + 2.5 * x[i]; }}\nvsum(y)"
        ),
        format!(
            "fn mcpi(n) {{\n  let seed = {lcg};\n  let hits = 0;\n  for i in range(0, n) {{\n    seed = (seed * 16807) % 2147483647;\n    let x = seed / 2147483647;\n    seed = (seed * 16807) % 2147483647;\n    let y = seed / 2147483647;\n    if x * x + y * y <= 1 {{ hits = hits + 1; }}\n  }}\n  return 4 * hits / n;\n}}\nmcpi(20000)"
        ),
        format!(
            "fn matmul(a, b, c, n) {{\n  for i in range(0, n) {{\n    for j in range(0, n) {{\n      let acc = 0;\n      for k in range(0, n) {{ acc = acc + a[i * n + k] * b[k * n + j]; }}\n      c[i * n + j] = acc;\n    }}\n  }}\n}}\nlet n = 24;\nlet a = zeros(n * n);\nlet b = zeros(n * n);\nlet c = zeros(n * n);\nfor i in range(0, n * n) {{\n  a[i] = (i % 7) * {c4};\n  b[i] = ((i % 5) + 1) * 0.5;\n}}\nmatmul(a, b, c, n);\nvsum(c)"
        ),
        format!(
            "let total = 0;\nfor r in range(0, 40) {{\n  let xs = zeros(500);\n  for i in range(0, 500) {{ xs[i] = i * {c5} + r; }}\n  total = total + vsum(xs);\n}}\ntotal"
        ),
    ]
}

/// `serve_cold` program `i`: clean lint-study and absint-study template
/// instances concatenated. Template indices are unique per program, so
/// every program (and every helper function name in it) is distinct.
pub fn cold_program(seed: u64, i: usize) -> String {
    let parts: Vec<String> = (0..PARTS_PER_COLD_PROGRAM)
        .map(|j| {
            let index = i * PARTS_PER_COLD_PROGRAM + j;
            let src = if j % 2 == 0 {
                lintstudy::generate_script(seed, index, None)
            } else {
                absintstudy::generate_script(seed, index, None)
            };
            src.trim_end().to_owned()
        })
        .collect();
    parts.join(";\n")
}

/// The service configuration under test: the default (JIT on, static
/// admission on, no faults) with admission limits raised so the closed
/// loop is never shed, and a deadline long enough that none expire.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        executors: EXECUTORS,
        admission_rate: 1e9,
        admission_burst: 1e9,
        default_deadline: Duration::from_secs(60),
        ..ServiceConfig::default()
    }
}

/// The closed loop's view of a job system.
pub trait Target {
    /// Receipt for an admitted job.
    type Handle;
    /// Submits job `i`; `None` when it is rejected.
    fn submit(&mut self, i: usize) -> Option<Self::Handle>;
    /// Blocks until job `i` finishes.
    fn wait(&mut self, i: usize, handle: Self::Handle);
}

/// Keeps `outstanding` jobs in flight, submitting job 0, 1, 2, … while
/// `more(i)` holds, and waiting for the oldest job whenever the window is
/// full. Returns the number of jobs submitted; every admitted job has been
/// waited for on return.
pub fn closed_loop<T: Target>(
    target: &mut T,
    outstanding: usize,
    mut more: impl FnMut(usize) -> bool,
) -> usize {
    let mut inflight = VecDeque::with_capacity(outstanding);
    let mut next = 0;
    loop {
        while inflight.len() < outstanding && more(next) {
            if let Some(h) = target.submit(next) {
                inflight.push_back((next, h));
            }
            next += 1;
        }
        match inflight.pop_front() {
            Some((i, h)) => target.wait(i, h),
            None => return next,
        }
    }
}

/// One job's result as the closed loop observed it.
enum JobResult {
    Completed { output: String, latency: Duration },
    Failed(String),
    Rejected(String),
}

/// [`Target`] over a live [`Service`], recording results and (when the
/// tracer is on) `serve.service.submit` / `serve.service.wait` spans.
struct ServiceTarget<'a> {
    service: &'a Service,
    tenants: usize,
    /// Loop job `i` is job `first_job + i`: numbering continues across
    /// phases, so `serve_cold` never resubmits a program.
    first_job: usize,
    programs: &'a Programs,
    tracer: &'a mut Tracer,
    results: Vec<(usize, JobResult)>,
    /// Seconds from `start` to each completion the loop observed, with
    /// the job's latency in milliseconds.
    start: Instant,
    done: Vec<(f64, f64)>,
}

impl Target for ServiceTarget<'_> {
    /// The job's handle and how long `Service::submit` took: the service
    /// stamps a job's latency from the end of admission, so the submit
    /// call is added back to time each job from submit to outcome.
    type Handle = (rcr_serve::JobHandle, Duration);

    fn submit(&mut self, i: usize) -> Option<Self::Handle> {
        let i = self.first_job + i;
        let spec = JobSpec::new(i % self.tenants, self.programs.source(i));
        let span = self.tracer.enter("serve.service.submit", i as u64);
        let t0 = Instant::now();
        let res = self.service.submit(spec);
        let admission = t0.elapsed();
        self.tracer.exit(span);
        match res {
            Ok(h) => Some((h, admission)),
            Err(e) => {
                self.results.push((i, JobResult::Rejected(e.to_string())));
                None
            }
        }
    }

    fn wait(&mut self, i: usize, (handle, admission): Self::Handle) {
        let i = self.first_job + i;
        let span = self.tracer.enter("serve.service.wait", i as u64);
        let outcome = handle.wait();
        self.tracer.exit(span);
        let result = match outcome {
            Outcome::Completed {
                output, latency, ..
            } => {
                let latency = admission + latency;
                let t = self.start.elapsed().as_secs_f64();
                self.done.push((t, latency.as_secs_f64() * 1e3));
                JobResult::Completed { output, latency }
            }
            Outcome::Failed(e) => JobResult::Failed(e.to_string()),
        };
        self.results.push((i, result));
    }
}

/// A started service plus the reference outputs computed in set-up.
struct Setup {
    service: Service,
    references: HashMap<u64, String>,
}

/// The reference output of `src`, from the fused VM.
fn reference(src: &str) -> String {
    run_source_vm_fused(src)
        .unwrap_or_else(|e| panic!("generated program failed on the reference VM: {e}\n{src}"))
        .to_string()
}

/// Starts the service, computes the `Hot` references, and runs the
/// warm-up, so compile and JIT tier-up are paid here and not in timing.
fn set_up(programs: &Programs) -> Setup {
    let service = Service::new(service_config());
    let mut references = HashMap::new();
    for src in programs.warmup_sources() {
        if programs.kind == Kind::Hot {
            references.insert(rcr_serve::content_hash(&src), reference(&src));
        }
        let repeats = if programs.kind == Kind::Hot { 3 } else { 1 };
        for _ in 0..repeats {
            let outcome = service
                .submit(JobSpec::new(0, src.clone()))
                .expect("warm-up job admitted")
                .wait();
            assert!(outcome.is_completed(), "warm-up job failed: {outcome:?}");
        }
    }
    Setup {
        service,
        references,
    }
}

/// Counter deltas of one timed phase.
struct Counters {
    metrics: MetricsSnapshot,
    cache: CacheStats,
}

fn counters(service: &Service) -> Counters {
    Counters {
        metrics: service.metrics(),
        cache: service.cache_stats(),
    }
}

/// One closed-loop phase on a running service.
struct Phase {
    wall_s: f64,
    /// Completion rate and median latency (ms) of each whole second.
    windows: Vec<(f64, f64)>,
    /// Job numbers used: the next phase starts here.
    end_job: usize,
    results: Vec<(usize, JobResult)>,
    before: Counters,
    after: Counters,
}

impl Phase {
    fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, r)| matches!(r, JobResult::Completed { .. }))
            .count()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.results
            .iter()
            .filter_map(|(_, r)| match r {
                JobResult::Completed { latency, .. } => Some(latency.as_secs_f64() * 1e3),
                _ => None,
            })
            .collect()
    }
}

fn run_phase(
    service: &Service,
    programs: &Programs,
    tracer: &mut Tracer,
    first_job: usize,
    seconds: f64,
) -> Phase {
    let before = counters(service);
    let t0 = Instant::now();
    let mut target = ServiceTarget {
        service,
        tenants: service_config().tenants.len(),
        first_job,
        programs,
        tracer,
        results: Vec::new(),
        start: t0,
        done: Vec::new(),
    };
    let until = t0 + Duration::from_secs_f64(seconds);
    let submitted = closed_loop(&mut target, OUTSTANDING, |_| Instant::now() < until);
    let wall_s = t0.elapsed().as_secs_f64();
    let windows = windows(&target.done);
    Phase {
        wall_s,
        windows,
        end_job: first_job + submitted,
        results: target.results,
        before,
        after: counters(service),
    }
}

/// Completion rate and median latency in each whole second `[k, k + 1)`
/// that saw at least two completions. The rate is measured between the
/// window's first and last completion, so it keeps the clock's resolution.
/// `done` holds `(completion time, latency)` sorted by time.
fn windows(done: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut rest = done;
    while let Some(&(first, _)) = rest.first() {
        let end = rest.partition_point(|(t, _)| t.floor() <= first.floor());
        let (window, tail) = rest.split_at(end);
        if let [(a, _), .., (b, _)] = window {
            if b > a {
                let latencies: Vec<f64> = window.iter().map(|(_, l)| *l).collect();
                out.push(((window.len() - 1) as f64 / (b - a), median(&latencies)));
            }
        }
        rest = tail;
    }
    out
}

/// Checks every completed job's output against its reference (computed
/// in set-up for `Hot`; here, on `nproc` threads, for `Cold`) and
/// returns the number of mismatches.
fn verify_outputs(programs: &Programs, references: &HashMap<u64, String>, phase: &Phase) -> usize {
    let done: Vec<(usize, &str)> = phase
        .results
        .iter()
        .filter_map(|(i, r)| match r {
            JobResult::Completed { output, .. } => Some((*i, output.as_str())),
            _ => None,
        })
        .collect();
    let mismatches = |part: &[(usize, &str)]| {
        part.iter()
            .filter(|(i, out)| {
                let src = programs.source(*i);
                match references.get(&rcr_serve::content_hash(&src)) {
                    Some(r) => r != out,
                    None => reference(&src) != *out,
                }
            })
            .count()
    };
    // This thread checks the first share; nproc - 1 helpers the rest.
    let chunk = done.len().div_ceil(crate::procfs::nproc()).max(1);
    let mut parts = done.chunks(chunk);
    let own = parts.next().unwrap_or(&[]);
    std::thread::scope(|s| {
        let helpers: Vec<_> = parts
            .map(|part| s.spawn(move || mismatches(part)))
            .collect();
        mismatches(own)
            + helpers
                .into_iter()
                .map(|h| h.join().expect("verifier thread panicked"))
                .sum::<usize>()
    })
}

/// Per-job results of pushing programs through the public calls the
/// service makes, on this thread, with a span around each call.
struct Pipeline {
    source_bytes: Vec<f64>,
    code_len: Vec<f64>,
    jit_compiled: Vec<f64>,
    jit_calls: Vec<f64>,
    deopts: Vec<f64>,
    mismatches: usize,
}

/// Runs the traced jobs' programs, in submission order, through
/// static admission, the compiler stages, instantiation and un-sliced JIT
/// execution, until `seconds` have passed (at least one job). Each result
/// must equal the output the service returned for that job.
fn run_pipeline(
    programs: &Programs,
    jobs: &[(usize, &str)],
    tracer: &mut Tracer,
    seconds: f64,
) -> Pipeline {
    let quota = TenantQuota::default();
    let mut artifacts: HashMap<u64, Arc<ProgramArtifact>> = HashMap::new();
    let mut p = Pipeline {
        source_bytes: Vec::new(),
        code_len: Vec::new(),
        jit_compiled: Vec::new(),
        jit_calls: Vec::new(),
        deopts: Vec::new(),
        mismatches: 0,
    };
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    for &(i, served) in jobs {
        if !p.source_bytes.is_empty() && Instant::now() >= until {
            break;
        }
        let g = i as u64;
        let src = programs.source(i);
        let root = tracer.enter("bench.serve.job", g);
        tracer.time("serve.program.admission", g, || {
            std::hint::black_box(static_fuel_lower_bound(&src))
        });
        let program = tracer
            .time("minilang.parser.parse", g, || parser::parse(&src))
            .expect("generated program parses");
        let optimized = tracer.time("minilang.optimize", g, || optimize::optimize(&program));
        let compiled = tracer
            .time("minilang.bytecode.compile", g, || {
                bytecode::compile(&optimized)
            })
            .expect("generated program compiles");
        let facts = tracer.time("minilang.absint.analyze", g, || {
            absint::analyze(&optimized).facts
        });
        let fused = tracer.time("minilang.peephole", g, || {
            peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts))
        });
        std::hint::black_box(&fused);
        let key = rcr_serve::content_hash(&src);
        let artifact = match artifacts.get(&key) {
            Some(a) => Arc::clone(a),
            None => {
                let a = tracer
                    .time("serve.cache.compile", g, || ProgramArtifact::compile(&src))
                    .expect("generated program compiles");
                let a = Arc::new(a);
                // Only the repeated `Hot` mix benefits from keeping these.
                if programs.kind == Kind::Hot {
                    artifacts.insert(key, Arc::clone(&a));
                }
                a
            }
        };
        let code = tracer.time("serve.program.instantiate", g, || artifact.instantiate());
        let (value, stats) = tracer.time("minilang.vm.execute", g, || {
            let engine = Jit::with_shared(
                &code,
                JitConfig::default(),
                Some(artifact.facts()),
                artifact.jit_cache().clone(),
            );
            let mut vm = Vm::with_limits(Some(quota.fuel), Some(quota.memory));
            let value = vm.run_jit(&code, &engine);
            let s = engine.stats();
            (value, [s.compiled().into(), s.jit_calls(), s.deopts()])
        });
        tracer.exit(root);
        let out = value.expect("generated program runs").to_string();
        p.mismatches += usize::from(out != served);
        p.source_bytes.push(src.len() as f64);
        p.code_len.push(artifact.code_len() as f64);
        p.jit_compiled.push(stats[0] as f64);
        p.jit_calls.push(stats[1] as f64);
        p.deopts.push(stats[2] as f64);
    }
    p
}

/// Runs `serve_hot` or `serve_cold`.
pub fn run(kind: Kind, args: &RunArgs) -> Report {
    let programs = Programs::new(kind, args.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = setup.take() {
            old.service.shutdown();
        }
        let t0 = Instant::now();
        setup = Some(set_up(&programs));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        service,
        references,
    } = setup.expect("at least one set-up");

    let mut report = Report::default();
    let cpu0 = crate::procfs::cpu_s();
    // The untraced phase gives the end-to-end numbers and the service
    // counters; with tracing on it takes a third of the run.
    let untraced_s = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let mut quiet = Tracer::disabled();
    let plain = run_phase(&service, &programs, &mut quiet, 0, untraced_s);
    let mut phases = vec![plain];
    let mut tracer = Tracer::enabled();
    let mut pipeline = None;
    let mut traced_wall = 0.0;
    if args.trace {
        let first = phases[0].end_job;
        let t0 = Instant::now();
        let traced = run_phase(&service, &programs, &mut tracer, first, args.seconds / 3.0);
        let mut jobs: Vec<(usize, &str)> = traced
            .results
            .iter()
            .filter_map(|(i, r)| match r {
                JobResult::Completed { output, .. } => Some((*i, output.as_str())),
                _ => None,
            })
            .collect();
        jobs.sort_unstable();
        pipeline = Some(run_pipeline(
            &programs,
            &jobs,
            &mut tracer,
            args.seconds / 3.0,
        ));
        traced_wall = t0.elapsed().as_secs_f64();
        phases.push(traced);
    }
    let cpu_s = crate::procfs::cpu_s() - cpu0;
    let end = service.metrics();
    service.shutdown();

    // Correctness: outputs against references, and outcome closure.
    let mut mismatches: usize = phases
        .iter()
        .map(|p| verify_outputs(&programs, &references, p))
        .sum();
    mismatches += pipeline.as_ref().map_or(0, |p| p.mismatches);
    let closed = end.completed + end.failed + end.cancelled == end.admitted;
    if !closed {
        eprintln!("outcome closure violated: {end:?}");
    }
    if mismatches > 0 {
        eprintln!("{mismatches} job outputs differ from their references");
    }
    report.correct = closed && mismatches == 0;
    for p in &phases {
        report.attempted += p.results.len() as u64;
        report.failed += p
            .results
            .iter()
            .filter(|(_, r)| !matches!(r, JobResult::Completed { .. }))
            .count() as u64;
    }
    for (i, r) in phases.iter().flat_map(|p| &p.results) {
        if let JobResult::Failed(e) | JobResult::Rejected(e) = r {
            eprintln!("job {i} did not complete: {e}");
        }
    }

    let plain = &phases[0];
    let latencies = plain.latencies_ms();
    report.set("setup_s", median(&setups));
    // Medians over one-second windows, so a stretch in which the host
    // takes the CPU away moves a few windows, not the run's figure.
    let (rate, latency) = if plain.windows.is_empty() {
        (plain.completed() as f64 / plain.wall_s, median(&latencies))
    } else {
        let rates: Vec<f64> = plain.windows.iter().map(|w| w.0).collect();
        let p50s: Vec<f64> = plain.windows.iter().map(|w| w.1).collect();
        (median(&rates), median(&p50s))
    };
    report.set("throughput_per_s", rate);
    report.set("latency_p50_ms", latency);
    report.set("peak_rss_mb", crate::procfs::peak_rss_mb());

    if args.trace {
        let traced = &phases[1];
        let pipeline = pipeline.expect("traced run has a pipeline pass");
        let (b, a) = (&plain.before, &plain.after);
        let m = |f: fn(&MetricsSnapshot) -> u64| (f(&a.metrics) - f(&b.metrics)) as f64;
        report.set("serve.service.submitted", m(|s| s.submitted));
        report.set("serve.service.completed", m(|s| s.completed));
        report.set("serve.service.failed", m(|s| s.failed));
        report.set(
            "serve.service.rejected",
            m(|s| {
                s.shed_overloaded
                    + s.rejected_circuit_open
                    + s.rejected_unknown_tenant
                    + s.rejected_shutting_down
                    + s.rejected_statically_infeasible
            }),
        );
        report.set("serve.service.retries", m(|s| s.retries));
        let hits = (a.cache.hits - b.cache.hits) as f64;
        let misses = (a.cache.misses - b.cache.misses) as f64;
        let coalesced = (a.cache.coalesced - b.cache.coalesced) as f64;
        report.set(
            "serve.cache.hit_ratio",
            hits / (hits + misses + coalesced).max(1.0),
        );
        report.set("serve.cache.misses", misses);
        report.set(
            "serve.cache.evictions",
            (a.cache.evictions - b.cache.evictions) as f64,
        );
        report.set_summary("e2e.latency_ms", &summarize(&latencies));

        for (metric, span) in [
            ("minilang.parser.parse_us", "minilang.parser.parse"),
            ("minilang.optimize.us", "minilang.optimize"),
            ("minilang.bytecode.compile_us", "minilang.bytecode.compile"),
            ("minilang.absint.analyze_us", "minilang.absint.analyze"),
            ("minilang.peephole.us", "minilang.peephole"),
            ("serve.program.admission_us", "serve.program.admission"),
            ("minilang.vm.execute_us", "minilang.vm.execute"),
        ] {
            report.set(metric, median(&tracer.self_secs(span)) * 1e6);
        }
        for (metric, span) in [
            ("serve.program.instantiate_us", "serve.program.instantiate"),
            ("serve.service.submit_us", "serve.service.submit"),
            ("serve.service.wait_us", "serve.service.wait"),
        ] {
            let us: Vec<f64> = tracer.self_secs(span).iter().map(|s| s * 1e6).collect();
            report.set_summary(metric, &summarize(&us));
        }
        report.set("minilang.jit.compiled", mean(&pipeline.jit_compiled));
        report.set("minilang.jit.jit_calls", mean(&pipeline.jit_calls));
        report.set("minilang.jit.deopts", mean(&pipeline.deopts));
        report.set("minilang.source_bytes", mean(&pipeline.source_bytes));
        report.set("minilang.code_len", mean(&pipeline.code_len));
        let exec_per_job = mean(&tracer.self_secs("minilang.vm.execute"));
        report.set(
            "serve.service.useful_exec_ratio",
            exec_per_job * traced.completed() as f64 / (EXECUTORS as f64 * traced.wall_s),
        );
        report.set(
            "trace.overhead_ratio",
            (plain.completed() as f64 / plain.wall_s) / (traced.completed() as f64 / traced.wall_s),
        );
        report.set("trace.coverage", tracer.coverage(traced_wall));
        eprintln!(
            "pipeline pass: {} of {} traced jobs",
            pipeline.source_bytes.len(),
            traced.completed()
        );
    }
    report.set("proc.cpu_s", cpu_s);
    report.tracer = args.trace.then_some(tracer);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fake job system that tracks how many jobs are in flight.
    struct Counting {
        inflight: usize,
        max_inflight: usize,
        waited: Vec<usize>,
        reject_every: usize,
    }

    impl Target for Counting {
        type Handle = usize;
        fn submit(&mut self, i: usize) -> Option<usize> {
            if self.reject_every > 0 && i.is_multiple_of(self.reject_every) {
                return None;
            }
            self.inflight += 1;
            self.max_inflight = self.max_inflight.max(self.inflight);
            Some(i)
        }
        fn wait(&mut self, i: usize, handle: usize) {
            assert_eq!(i, handle);
            self.inflight -= 1;
            self.waited.push(i);
        }
    }

    #[test]
    fn closed_loop_never_exceeds_its_outstanding_bound() {
        for (bound, reject_every) in [(1, 0), (4, 0), (4, 3), (7, 5)] {
            let mut t = Counting {
                inflight: 0,
                max_inflight: 0,
                waited: Vec::new(),
                reject_every,
            };
            let submitted = closed_loop(&mut t, bound, |i| i < 100);
            assert_eq!(submitted, 100);
            assert_eq!(t.max_inflight, bound, "bound {bound}");
            assert_eq!(t.inflight, 0, "every admitted job was waited for");
            let admitted = (0..100)
                .filter(|i| reject_every == 0 || i % reject_every != 0)
                .count();
            assert_eq!(t.waited.len(), admitted);
            assert!(t.waited.windows(2).all(|w| w[0] < w[1]), "oldest first");
        }
    }

    #[test]
    fn closed_loop_keeps_the_live_service_within_the_bound() {
        let programs = Programs::new(Kind::Cold, 3);
        let service = Service::new(service_config());
        let mut quiet = Tracer::disabled();
        let mut target = ServiceTarget {
            service: &service,
            tenants: 4,
            first_job: 0,
            programs: &programs,
            tracer: &mut quiet,
            results: Vec::new(),
            start: Instant::now(),
            done: Vec::new(),
        };
        let mut max_queue = 0;
        closed_loop(&mut target, OUTSTANDING, |i| {
            max_queue = max_queue.max(service.queue_len());
            i < 40
        });
        let m = service.metrics();
        service.shutdown();
        assert!(max_queue <= OUTSTANDING);
        assert_eq!(m.submitted, 40);
        assert_eq!(m.completed, 40);
    }

    #[test]
    fn windows_measure_rate_and_median_latency_per_second() {
        // Second 0: completions at 0.1, 0.3, 0.5 → 2 gaps over 0.4 s.
        // Second 1: one completion, no window. Second 2: 2.0 and 2.25.
        let done = [
            (0.1, 3.0),
            (0.3, 1.0),
            (0.5, 2.0),
            (1.5, 9.0),
            (2.0, 4.0),
            (2.25, 6.0),
        ];
        let w = windows(&done);
        assert_eq!(w.len(), 2);
        assert!((w[0].0 - 5.0).abs() < 1e-9 && w[0].1 == 2.0);
        assert!((w[1].0 - 4.0).abs() < 1e-9 && w[1].1 == 5.0);
        assert!(windows(&[]).is_empty());
    }

    #[test]
    fn generated_programs_run_and_are_distinct() {
        let cold = Programs::new(Kind::Cold, 11);
        let a = cold.source(0);
        assert_ne!(a, cold.source(1));
        assert!(a.lines().count() >= 20, "tens of lines:\n{a}");
        for i in 0..12 {
            reference(&cold.source(i));
        }
        let hot = Programs::new(Kind::Hot, 11);
        assert_eq!(hot.mix.len(), 5);
        for src in &hot.mix {
            reference(src);
        }
    }
}
