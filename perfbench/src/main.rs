//! The repository benchmark.
//!
//! ```text
//! rcr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives one user-facing path of the system from outside,
//! through the crates' public APIs, on inputs generated from `--seed`:
//!
//! * `serve_hot`: repeated compute kernels submitted to `rcr-serve`;
//! * `serve_cold`: distinct generated programs submitted to `rcr-serve`;
//! * `cluster_replay`: an SWF trace replayed through the `rcr-cluster` engine;
//! * `survey_trends`: synthetic survey ingest plus a subgroup trend battery.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics from a traced run (and
//! writes its spans to `perfbench/traces/`). Every workload checks its
//! outputs; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Lines before it record
//! the host and a fingerprint of the generated inputs.

mod cluster;
mod procfs;
mod serve;
mod stats;
mod survey;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve_hot", "serve_cold", "cluster_replay", "survey_trends"];

/// End-to-end metrics (every workload, `--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload reports 0
/// for a layer it does not touch.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("minilang.parser.parse_us", "us"),
    ("minilang.optimize.us", "us"),
    ("minilang.bytecode.compile_us", "us"),
    ("minilang.absint.analyze_us", "us"),
    ("minilang.peephole.us", "us"),
    ("serve.program.admission_us", "us"),
    ("minilang.vm.execute_us", "us"),
    ("minilang.jit.compiled", "count"),
    ("minilang.jit.jit_calls", "count"),
    ("minilang.jit.deopts", "count"),
    ("serve.program.instantiate_us.p50", "us"),
    ("serve.program.instantiate_us.tail", "us"),
    ("serve.program.instantiate_us.tail_pct", "%"),
    ("serve.program.instantiate_us.samples", "count"),
    ("serve.service.submit_us.p50", "us"),
    ("serve.service.submit_us.tail", "us"),
    ("serve.service.submit_us.tail_pct", "%"),
    ("serve.service.submit_us.samples", "count"),
    ("serve.service.wait_us.p50", "us"),
    ("serve.service.wait_us.tail", "us"),
    ("serve.service.wait_us.tail_pct", "%"),
    ("serve.service.wait_us.samples", "count"),
    ("serve.service.useful_exec_ratio", "ratio"),
    ("serve.service.submitted", "count"),
    ("serve.service.completed", "count"),
    ("serve.service.failed", "count"),
    ("serve.service.rejected", "count"),
    ("serve.service.retries", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.misses", "count"),
    ("serve.cache.evictions", "count"),
    ("minilang.source_bytes", "bytes"),
    ("minilang.code_len", "count"),
    ("e2e.latency_ms.p50", "ms"),
    ("e2e.latency_ms.tail", "ms"),
    ("e2e.latency_ms.tail_pct", "%"),
    ("e2e.latency_ms.samples", "count"),
    ("cluster.swf.parse_s", "s"),
    ("cluster.engine.inject_s", "s"),
    ("cluster.engine.advance_s", "s"),
    ("cluster.engine.events", "count"),
    ("cluster.engine.events_per_s", "1/s"),
    ("cluster.engine.events_per_s.first_quarter", "1/s"),
    ("cluster.engine.events_per_s.last_quarter", "1/s"),
    ("cluster.metrics.summary_s", "s"),
    ("cluster.engine.jobs_completed", "count"),
    ("cluster.engine.jobs_abandoned", "count"),
    ("cluster.engine.node_failures", "count"),
    ("cluster.engine.events_per_job", "count"),
    ("synth.generator.rows_per_s", "1/s"),
    ("survey.columnar.select_s", "s"),
    ("survey.columnar.select_calls", "count"),
    ("survey.columnar.aggregate_s", "s"),
    ("survey.columnar.aggregate_calls", "count"),
    ("survey.columnar.rows_scanned", "count"),
    ("survey.columnar.parallel_speedup", "ratio"),
    ("stats.tests_s", "s"),
    ("stats.calls", "count"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Incremental FNV-1a, for input fingerprints.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs `v` as 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed or were rejected.
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    /// The traced run's recorder, written out after the result.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Records metric `name`, which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`] and finite.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name.to_owned(), value);
    }

    /// Records `prefix.{p50,tail,tail_pct,samples}`.
    pub fn set_summary(&mut self, prefix: &str, s: &stats::Summary) {
        for (suffix, v) in [
            ("p50", s.p50),
            ("tail", s.tail),
            ("tail_pct", s.tail_pct),
            ("samples", s.n as f64),
        ] {
            self.set(&format!("{prefix}.{suffix}"), v);
        }
    }

    /// The result line: the end-to-end metrics, or with `trace` the
    /// per-layer metrics (0 for layers this workload does not touch).
    pub fn to_json(&self, trace: bool) -> String {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(*name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Fingerprint of the inputs `seed` generates for `workload`: the job
/// sources, the check trace's SWF text, or the cohort parameters.
pub fn input_fingerprint(workload: &str, seed: u64) -> u64 {
    let mut h = Fnv::default();
    h.bytes(workload.as_bytes());
    match workload {
        "serve_hot" => serve::Programs::new(serve::Kind::Hot, seed).fingerprint(64, &mut h),
        "serve_cold" => serve::Programs::new(serve::Kind::Cold, seed).fingerprint(64, &mut h),
        "cluster_replay" => h.bytes(cluster::check_trace(seed).as_bytes()),
        "survey_trends" => survey::fingerprint(seed, &mut h),
        other => panic!("unknown workload {other}"),
    }
    h.finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rcr-perfbench: {e}");
            eprintln!(
                "usage: rcr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "serve_hot" => serve::run(serve::Kind::Hot, &args),
        "serve_cold" => serve::run(serve::Kind::Cold, &args),
        "cluster_replay" => cluster::run(&args),
        "survey_trends" => survey::run(&args),
        _ => unreachable!("parse_args checked the workload"),
    };
    println!("# host {}", procfs::host_json());
    println!(
        "# inputs workload={} seed={} fnv={:016x}",
        args.workload,
        args.seed,
        input_fingerprint(&args.workload, args.seed)
    );
    if let Some(tracer) = &report.tracer {
        let dir = std::path::Path::new("perfbench/traces");
        // One file per workload, replaced by each traced run, so repeated
        // runs do not accumulate spans on disk.
        let path = dir.join(format!("{}.jsonl", args.workload));
        let header = format!(
            "{{\"host\":{},\"workload\":\"{}\",\"seed\":{}}}\n",
            procfs::host_json(),
            args.workload,
            args.seed
        );
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, header + &tracer.to_jsonl()))
        {
            Ok(()) => println!("# spans {}", path.display()),
            Err(e) => eprintln!("rcr-perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json(args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("rcr-perfbench: output checks failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            RunArgs {
                workload: "serve_hot".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_hot --seed x --seconds 1 --trace 0",
            "--workload serve_hot --seed 1 --seconds 0 --trace 0",
            "--workload serve_hot --seed 1 --seconds 1 --trace 2",
            "--workload serve_hot --seed 1 --seconds 1",
            "--workload serve_hot --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn one_seed_always_yields_byte_identical_inputs() {
        for w in WORKLOADS {
            let a = input_fingerprint(w, 42);
            assert_eq!(a, input_fingerprint(w, 42), "{w}");
            assert_ne!(a, input_fingerprint(w, 43), "{w}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let text = include_str!("../../BENCHMARK.json");
        let count = |needle: &str| text.matches(needle).count();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(count(&decl), 1, "{decl}");
        }
        for w in WORKLOADS {
            assert_eq!(count(&format!("\"name\": \"{w}\"")), 1, "{w}");
        }
        assert_eq!(
            count("\"name\": "),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 0, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = r.to_json(true);
        assert_eq!(traced.matches("\"value\": ").count(), PER_LAYER.len());
        assert!(!traced.contains("setup_s"));
    }
}
