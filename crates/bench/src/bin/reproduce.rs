//! `reproduce` — regenerates every table and figure of the reproduction.
//!
//! ```text
//! reproduce [EXPERIMENT ...] [--quick] [--out DIR]
//! reproduce bench-diff OLD.json NEW.json [--tol FRAC] [--structural]
//!
//!   EXPERIMENT    e1..e23 (default: all)
//!   --quick       reduced sizes for the timing experiments (CI-friendly;
//!                 --smoke is an alias)
//!   --out DIR     write tables (.txt/.csv) and figures (.svg) to DIR
//!                 (default: print tables to stdout only)
//!
//!   bench-diff    compare two BENCH_*.json summaries metric by metric;
//!                 exits nonzero when any metric regressed beyond --tol
//!                 (relative, default 0) or disappeared. --structural
//!                 compares metric names only — the right gate for a
//!                 --smoke run against committed full-size results.
//! ```
//!
//! With `--out`, the timing experiments (e16..e23) additionally emit a
//! machine-readable `BENCH_<ID>.json` summary (host info, headline
//! metrics, determinism checksum) for run-over-run tracking; `bench-diff`
//! is their comparator.
//!
//! `RCR_THREADS` overrides the worker-thread count used by every parallel
//! tier (see `rcr_kernels::par::default_threads`), and `RCR_TILE` the
//! cache-blocking tile of the packed matmul kernel (see
//! `rcr_kernels::simd::default_tile`).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use rcr_bench::{diff, render, summary};
use rcr_core::experiments::{ExperimentInfo, Experiments, INDEX};
use rcr_core::perfgap::GapConfig;
use rcr_core::MASTER_SEED;
use rcr_report::table::Table;

struct Args {
    /// Every requested experiment, validated against [`INDEX`] before any
    /// of them runs.
    which: Vec<ExperimentInfo>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut which = Vec::new();
    let mut quick = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--out" => {
                out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--out requires a directory".to_owned())?,
                ));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: reproduce [e1..e23 ...] [--quick] [--out DIR]\n       \
                            reproduce bench-diff OLD.json NEW.json [--tol FRAC] [--structural]"
                        .to_owned(),
                )
            }
            e if e.starts_with('e') || e.starts_with('E') => {
                let id = e.to_lowercase();
                let info = INDEX
                    .into_iter()
                    .find(|i| i.id.to_lowercase() == id)
                    .ok_or_else(|| format!("unknown experiment `{id}` (expected e1..e23)"))?;
                which.push(info);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if which.is_empty() {
        which = INDEX.to_vec();
    }
    Ok(Args { which, quick, out })
}

struct Emitter {
    out: Option<PathBuf>,
}

impl Emitter {
    fn table(&self, id: &str, name: &str, t: &Table) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{}", t.render_ascii());
        if let Some(dir) = &self.out {
            write_file(dir, &format!("{id}_{name}.txt"), &t.render_ascii());
            write_file(dir, &format!("{id}_{name}.csv"), &t.render_csv());
        }
    }

    fn note(&self, text: &str) {
        println!("{text}\n");
    }

    fn figure(&self, id: &str, name: &str, svg: &str) {
        if let Some(dir) = &self.out {
            write_file(dir, &format!("{id}_{name}.svg"), svg);
            println!("[wrote figure {id}_{name}.svg]\n");
        } else {
            println!("[figure {id}_{name}: rerun with --out DIR to write the SVG]\n");
        }
    }

    fn json<T: serde::Serialize>(&self, id: &str, name: &str, value: &T) {
        if let Some(dir) = &self.out {
            let payload =
                serde_json::to_string_pretty(value).expect("experiment outputs serialize");
            write_file(dir, &format!("{id}_{name}.json"), &payload);
        }
    }

    fn bench(&self, s: &summary::BenchSummary) {
        if let Some(dir) = &self.out {
            let payload = serde_json::to_string_pretty(s).expect("bench summaries serialize");
            write_file(dir, &format!("BENCH_{}.json", s.experiment), &payload);
            println!(
                "[wrote BENCH_{}.json: {} metrics, checksum {}]\n",
                s.experiment,
                s.metrics.len(),
                s.checksum
            );
        }
    }
}

fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// `reproduce bench-diff OLD NEW [--tol FRAC] [--structural]`.
fn run_bench_diff(args: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut opts = diff::DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--structural" => opts.structural = true,
            "--tol" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--tol requires a fractional value, e.g. --tol 0.05");
                    return 2;
                };
                opts.tol = v;
            }
            other => files.push(other.to_owned()),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("usage: reproduce bench-diff OLD.json NEW.json [--tol FRAC] [--structural]");
        return 2;
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).map_err(|e| {
            eprintln!("error: cannot read {p}: {e}");
            2
        })
    };
    let (old_json, new_json) = match (read(old_path), read(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    match diff::diff_summaries(&old_json, &new_json, &opts) {
        Ok(report) => {
            print!("{}", report.render());
            i32::from(report.failures() > 0)
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("bench-diff") {
        std::process::exit(run_bench_diff(&argv[1..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let emit = Emitter {
        out: args.out.clone(),
    };
    let ex = Experiments::new(MASTER_SEED);
    let gap_config = if args.quick {
        GapConfig::quick()
    } else {
        GapConfig::default()
    };

    for info in &args.which {
        println!("== {} ({}): {} ==\n", info.id, info.artifact, info.title);
        let id = info.id.to_lowercase();
        if let Err(e) = run_one(&id, &ex, &gap_config, &emit) {
            eprintln!("experiment {id} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run_one(
    id: &str,
    ex: &Experiments,
    gap_config: &GapConfig,
    emit: &Emitter,
) -> rcr_core::Result<()> {
    match id {
        "e1" => {
            let d = ex.e1_demographics()?;
            emit.table("e1", "demographics", &render::e1_table(&d));
            emit.json("e1", "demographics", &d);
        }
        "e2" => {
            let shifts = ex.e2_language_shift()?;
            emit.table(
                "e2",
                "language_shift",
                &render::shift_table("Table 2: language usage, 2011 vs 2024", &shifts),
            );
            let omni = ex.e2_primary_language_omnibus()?;
            emit.note(&render::omnibus_line(&omni));
            emit.json("e2", "language_shift", &shifts);
        }
        "e3" => {
            let trends = ex.e3_language_trends()?;
            emit.table("e3", "slopes", &render::e3_slope_table(&trends));
            emit.figure("e3", "language_trends", &render::e3_figure(&trends));
            emit.json("e3", "language_trends", &trends);
        }
        "e4" => {
            let shifts = ex.e4_parallelism_shift()?;
            emit.table(
                "e4",
                "parallelism_shift",
                &render::shift_table("Table 3: parallelism usage, 2011 vs 2024", &shifts),
            );
            emit.json("e4", "parallelism_shift", &shifts);
        }
        "e5" => {
            let gaps = ex.e5_perf_gap(gap_config)?;
            emit.table("e5", "perf_gap", &render::gap_table("Figure 2 data", &gaps));
            emit.figure("e5", "perf_gap", &render::e5_figure(&gaps));
            emit.json("e5", "perf_gap", &gaps);
        }
        "e6" => {
            let curves = ex.e6_scaling(gap_config)?;
            emit.table("e6", "amdahl", &render::e6_table(&curves));
            emit.figure("e6", "scaling", &render::e6_figure(&curves));
            emit.json("e6", "scaling", &curves);
        }
        "e7" => {
            let shifts = ex.e7_practice_shift()?;
            emit.table(
                "e7",
                "practice_shift",
                &render::shift_table(
                    "Table 4: software-engineering practices, 2011 vs 2024",
                    &shifts,
                ),
            );
            emit.json("e7", "practice_shift", &shifts);
        }
        "e8" => {
            let rows = ex.e8_gpu_by_field()?;
            emit.table("e8", "gpu_by_field", &render::e8_table(&rows));
            emit.json("e8", "gpu_by_field", &rows);
        }
        "e9" => {
            let outcomes = ex.e9_sched_policies(2000)?;
            emit.table("e9", "policies", &render::e9_table(&outcomes));
            emit.figure("e9", "wait_cdf", &render::e9_figure(&outcomes));
            emit.json("e9", "policies", &outcomes);
        }
        "e10" => {
            let loads: Vec<f64> = (5..=11).map(|i| i as f64 / 10.0).collect();
            let pts = ex.e10_load_sweep(1200, &loads)?;
            emit.table("e10", "load_sweep", &render::e10_table(&pts));
            emit.figure("e10", "load_sweep", &render::e10_figure(&pts));
            emit.json("e10", "load_sweep", &pts);
        }
        "e11" => {
            let gaps = ex.e11_interp_ablation(gap_config)?;
            emit.table("e11", "interp_ablation", &render::e11_table(&gaps));
            emit.json("e11", "interp_ablation", &gaps);
        }
        "e12" => {
            let rows = ex.e12_pain_points()?;
            emit.table("e12", "pain_points", &render::e12_table(&rows));
            emit.figure("e12", "pain_points", &render::e12_figure(&rows));
            emit.json("e12", "pain_points", &rows);
        }
        "e13" => {
            let rows = ex.e13_theme_shift()?;
            emit.table(
                "e13",
                "theme_shift",
                &render::shift_table("Table 7: coded free-text obstacles, 2011 vs 2024", &rows),
            );
            emit.json("e13", "theme_shift", &rows);
        }
        "e14" => {
            let pts = ex.e14_resilience(600)?;
            emit.table("e14", "resilience", &render::e14_table(&pts));
            emit.figure("e14", "resilience", &render::e14_figure(&pts));
            emit.json("e14", "resilience", &pts);
        }
        "e15" => {
            let study = ex.e15_lint_detection(24)?;
            emit.table("e15", "lint_detection", &render::e15_table(&study));
            emit.figure("e15", "lint_detection", &render::e15_figure(&study));
            emit.json("e15", "lint_detection", &study);
        }
        "e16" => {
            let closures = ex.e16_gap_closure(gap_config)?;
            emit.table("e16", "gap_closure", &render::e16_table(&closures));
            emit.figure("e16", "gap_closure", &render::e16_figure(&closures));
            emit.json("e16", "gap_closure", &closures);
            emit.bench(&summary::summarize_e16(gap_config.quick, &closures));
        }
        "e17" => {
            let points = ex.e17_sched_ablation(gap_config)?;
            emit.table("e17", "scheduler_ablation", &render::e17_table(&points));
            emit.figure("e17", "scheduler_ablation", &render::e17_figure(&points));
            emit.json("e17", "scheduler_ablation", &points);
            emit.bench(&summary::summarize_e17(gap_config.quick, &points));
        }
        "e18" => {
            let points = ex.e18_memory(gap_config)?;
            emit.table("e18", "memory", &render::e18_table(&points));
            emit.figure("e18", "memory", &render::e18_figure(&points));
            emit.json("e18", "memory", &points);
            emit.bench(&summary::summarize_e18(gap_config.quick, &points));
        }
        "e19" => {
            let points = ex.e19_serve(gap_config)?;
            emit.table("e19", "serve", &render::e19_table(&points));
            emit.figure("e19", "serve", &render::e19_figure(&points));
            emit.json("e19", "serve", &points);
            emit.bench(&summary::summarize_e19(gap_config.quick, &points));
        }
        "e20" => {
            let study = ex.e20_absint(if gap_config.quick { 8 } else { 24 })?;
            emit.table("e20", "absint", &render::e20_table(&study));
            emit.table("e20", "admission", &render::e20_admission_table(&study));
            emit.figure("e20", "absint", &render::e20_figure(&study));
            emit.json("e20", "absint", &study);
            emit.bench(&summary::summarize_e20(gap_config.quick, &study));
        }
        "e21" => {
            let points = ex.e21_colstudy(gap_config)?;
            emit.table("e21", "columnar", &render::e21_table(&points));
            emit.figure("e21", "columnar", &render::e21_figure(&points));
            emit.json("e21", "columnar", &points);
            emit.bench(&summary::summarize_e21(gap_config.quick, &points));
        }
        "e22" => {
            let rows = ex.e22_jitstudy(gap_config)?;
            emit.table("e22", "jit_gap", &render::e22_table(&rows));
            emit.figure("e22", "jit_gap", &render::e22_figure(&rows));
            emit.json("e22", "jit_gap", &rows);
            emit.bench(&summary::summarize_e22(gap_config.quick, &rows));
        }
        "e23" => {
            let points = ex.e23_simstudy(gap_config)?;
            emit.table("e23", "simstudy", &render::e23_table(&points));
            emit.figure("e23", "simstudy", &render::e23_figure(&points));
            emit.json("e23", "simstudy", &points);
            emit.bench(&summary::summarize_e23(gap_config.quick, &points));
        }
        other => unreachable!("validated above: {other}"),
    }
    Ok(())
}
