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

use std::path::PathBuf;

use rcr_bench::{diff, Ctx, Emitter, Study, STUDIES};
use rcr_core::perfgap::GapConfig;
use rcr_core::MASTER_SEED;

const BENCH_DIFF: &str = "reproduce bench-diff OLD.json NEW.json [--tol FRAC] [--structural]";

struct Args {
    /// Every requested experiment, validated against [`STUDIES`] before
    /// any of them runs.
    which: Vec<Study>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let ids = format!(
        "{}..{}",
        STUDIES[0].id.to_lowercase(),
        STUDIES[STUDIES.len() - 1].id.to_lowercase()
    );
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
                return Err(format!(
                    "usage: reproduce [{ids} ...] [--quick] [--out DIR]\n       {BENCH_DIFF}"
                ))
            }
            e if e.starts_with('e') || e.starts_with('E') => {
                let id = e.to_lowercase();
                let study = STUDIES
                    .into_iter()
                    .find(|s| s.id.to_lowercase() == id)
                    .ok_or_else(|| format!("unknown experiment `{id}` (expected {ids})"))?;
                which.push(study);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if which.is_empty() {
        which = STUDIES.to_vec();
    }
    Ok(Args { which, quick, out })
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
                let tol = it.next().and_then(|v| v.parse::<f64>().ok());
                let Some(v) = tol.filter(|v| v.is_finite() && *v >= 0.0) else {
                    eprintln!("--tol requires a finite, non-negative fraction, e.g. --tol 0.05");
                    eprintln!("usage: {BENCH_DIFF}");
                    return 2;
                };
                opts.tol = v;
            }
            other => files.push(other.to_owned()),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        eprintln!("usage: {BENCH_DIFF}");
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
    let ctx = Ctx::new(
        MASTER_SEED,
        if args.quick {
            GapConfig::quick()
        } else {
            GapConfig::default()
        },
    );
    for study in args.which {
        println!("== {} ({}): {} ==\n", study.id, study.artifact, study.title);
        if let Err(e) = (study.run)(&ctx, &Emitter::new(study, args.out.as_deref())) {
            eprintln!("experiment {} failed: {e}", study.id.to_lowercase());
            std::process::exit(1);
        }
    }
}
