//! The study table: one [`Study`] entry per experiment E1–E23, each
//! holding the paper artifact it regenerates and the function that runs it
//! (`DESIGN.md` §4 is the prose index). The `reproduce` binary loops over
//! the requested entries, building one [`Emitter`] per entry.

use std::cell::OnceCell;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rcr_core::experiments::Experiments;
use rcr_core::perfgap::{
    gap_closure, jit_gap, measure_gaps, measure_scaling, GapConfig, KernelGap,
};
use rcr_core::{absintstudy, colstudy, lintstudy, memstudy, schedstudy, servestudy, simstudy};
use rcr_report::table::Table;

use crate::render;
use crate::summary::{self, BenchSummary, Metric};

/// What every study runs with.
#[derive(Debug)]
pub struct Ctx {
    /// Master seed every survey, workload and corpus derives from.
    pub seed: u64,
    /// Problem sizes of the timing experiments.
    pub gap: GapConfig,
    /// The tier ladder, measured by the first study that reads it.
    gaps: OnceCell<Vec<KernelGap>>,
}

impl Ctx {
    /// A context whose tier ladder is not measured yet.
    pub fn new(seed: u64, gap: GapConfig) -> Self {
        Ctx {
            seed,
            gap,
            gaps: OnceCell::new(),
        }
    }

    /// The verified tier-ladder measurement that E5, E11, E16 and E22 all
    /// read, taken by [`measure_gaps`] on the first call.
    ///
    /// # Errors
    /// What [`measure_gaps`] returns.
    pub fn gaps(&self) -> rcr_core::Result<&[KernelGap]> {
        if let Some(gaps) = self.gaps.get() {
            return Ok(gaps);
        }
        let gaps = measure_gaps(&self.gap)?;
        Ok(self.gaps.get_or_init(|| gaps))
    }
}

/// One experiment of the reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// Identifier, e.g. `"E2"`.
    pub id: &'static str,
    /// The paper artifact, e.g. `"Table 2"`.
    pub artifact: &'static str,
    /// Short title.
    pub title: &'static str,
    /// Runs the experiment and emits its tables, figures and summaries.
    pub run: fn(&Ctx, &Emitter) -> rcr_core::Result<()>,
}

/// Every experiment, in id order.
pub const STUDIES: [Study; 23] = [
    Study {
        id: "E1",
        artifact: "Table 1",
        title: "Respondent demographics (2024)",
        run: |ctx, emit| {
            let d = Experiments::new(ctx.seed).e1_demographics()?;
            emit.table("demographics", &render::e1_table(&d));
            emit.json("demographics", &d);
            Ok(())
        },
    },
    Study {
        id: "E2",
        artifact: "Table 2",
        title: "Language usage 2011 vs 2024",
        run: |ctx, emit| {
            let ex = Experiments::new(ctx.seed);
            let shifts = ex.e2_language_shift()?;
            emit.table(
                "language_shift",
                &render::shift_table("Table 2: language usage, 2011 vs 2024", &shifts),
            );
            let omni = ex.e2_primary_language_omnibus()?;
            emit.note(&render::omnibus_line(&omni));
            emit.json("language_shift", &shifts);
            Ok(())
        },
    },
    Study {
        id: "E3",
        artifact: "Figure 1",
        title: "Language adoption trends",
        run: |ctx, emit| {
            let trends = Experiments::new(ctx.seed).e3_language_trends()?;
            emit.table("slopes", &render::e3_slope_table(&trends));
            emit.figure("language_trends", &render::e3_figure(&trends));
            emit.json("language_trends", &trends);
            Ok(())
        },
    },
    Study {
        id: "E4",
        artifact: "Table 3",
        title: "Parallelism usage shift",
        run: |ctx, emit| {
            let shifts = Experiments::new(ctx.seed).e4_parallelism_shift()?;
            emit.table(
                "parallelism_shift",
                &render::shift_table("Table 3: parallelism usage, 2011 vs 2024", &shifts),
            );
            emit.json("parallelism_shift", &shifts);
            Ok(())
        },
    },
    Study {
        id: "E5",
        artifact: "Figure 2",
        title: "Interpreted-vs-native performance gap",
        run: |ctx, emit| {
            let gaps = ctx.gaps()?;
            emit.table("perf_gap", &render::gap_table("Figure 2 data", gaps));
            emit.figure("perf_gap", &render::e5_figure(gaps));
            emit.json("perf_gap", &gaps);
            Ok(())
        },
    },
    Study {
        id: "E6",
        artifact: "Figure 3",
        title: "Thread scaling and Amdahl fits",
        run: |ctx, emit| {
            let curves = measure_scaling(&ctx.gap)?;
            emit.table("amdahl", &render::e6_table(&curves));
            emit.figure("scaling", &render::e6_figure(&curves));
            emit.json("scaling", &curves);
            Ok(())
        },
    },
    Study {
        id: "E7",
        artifact: "Table 4",
        title: "Software-engineering practice adoption",
        run: |ctx, emit| {
            let shifts = Experiments::new(ctx.seed).e7_practice_shift()?;
            emit.table(
                "practice_shift",
                &render::shift_table(
                    "Table 4: software-engineering practices, 2011 vs 2024",
                    &shifts,
                ),
            );
            emit.json("practice_shift", &shifts);
            Ok(())
        },
    },
    Study {
        id: "E8",
        artifact: "Table 5",
        title: "GPU adoption by field (2024)",
        run: |ctx, emit| {
            let rows = Experiments::new(ctx.seed).e8_gpu_by_field()?;
            emit.table("gpu_by_field", &render::e8_table(&rows));
            emit.json("gpu_by_field", &rows);
            Ok(())
        },
    },
    Study {
        id: "E9",
        artifact: "Figure 4",
        title: "Scheduler policy wait-time CDF",
        run: |ctx, emit| {
            let outcomes = Experiments::new(ctx.seed).e9_sched_policies(2000)?;
            emit.table("policies", &render::e9_table(&outcomes));
            emit.figure("wait_cdf", &render::e9_figure(&outcomes));
            emit.json("policies", &outcomes);
            Ok(())
        },
    },
    Study {
        id: "E10",
        artifact: "Figure 5",
        title: "Utilization and wait vs offered load",
        run: |ctx, emit| {
            let loads: Vec<f64> = (5..=11).map(|i| i as f64 / 10.0).collect();
            let pts = Experiments::new(ctx.seed).e10_load_sweep(1200, &loads)?;
            emit.table("load_sweep", &render::e10_table(&pts));
            emit.figure("load_sweep", &render::e10_figure(&pts));
            emit.json("load_sweep", &pts);
            Ok(())
        },
    },
    Study {
        id: "E11",
        artifact: "Table 6",
        title: "Interpreter-tier ablation",
        run: |ctx, emit| {
            let gaps = ctx.gaps()?;
            emit.table("interp_ablation", &render::e11_table(gaps));
            emit.json("interp_ablation", &gaps);
            Ok(())
        },
    },
    Study {
        id: "E12",
        artifact: "Figure 6",
        title: "Pain-point Likert shift",
        run: |ctx, emit| {
            let rows = Experiments::new(ctx.seed).e12_pain_points()?;
            emit.table("pain_points", &render::e12_table(&rows));
            emit.figure("pain_points", &render::e12_figure(&rows));
            emit.json("pain_points", &rows);
            Ok(())
        },
    },
    Study {
        id: "E13",
        artifact: "Table 7",
        title: "Coded free-text obstacles",
        run: |ctx, emit| {
            let rows = Experiments::new(ctx.seed).e13_theme_shift()?;
            emit.table(
                "theme_shift",
                &render::shift_table("Table 7: coded free-text obstacles, 2011 vs 2024", &rows),
            );
            emit.json("theme_shift", &rows);
            Ok(())
        },
    },
    Study {
        id: "E14",
        artifact: "Figure 7",
        title: "Resilience: goodput and wasted work vs node MTBF",
        run: |ctx, emit| {
            let pts = Experiments::new(ctx.seed).e14_resilience(600)?;
            emit.table("resilience", &render::e14_table(&pts));
            emit.figure("resilience", &render::e14_figure(&pts));
            emit.json("resilience", &pts);
            Ok(())
        },
    },
    Study {
        id: "E15",
        artifact: "Table 8",
        title: "Static-analysis defect detection (seeded injection)",
        run: |ctx, emit| {
            let study = lintstudy::run_study(ctx.seed, 24)?;
            let title = format!(
                "Table 8: static-analysis detection of seeded defects \
                 (clean corpus: {} scripts, {} false positives)",
                study.n_clean, study.clean_with_findings
            );
            emit.table(
                "lint_detection",
                &render::detection_table(&title, &study.classes),
            );
            emit.figure(
                "lint_detection",
                &render::detection_figure(
                    "Table 8 figure: lint detection rate by injected defect class",
                    &study.classes,
                ),
            );
            emit.json("lint_detection", &study);
            Ok(())
        },
    },
    Study {
        id: "E16",
        artifact: "Table 9",
        title: "Superinstruction VM gap closure",
        run: |ctx, emit| {
            let closures = gap_closure(ctx.gaps()?);
            emit.table("gap_closure", &render::e16_table(&closures));
            emit.figure("gap_closure", &render::e16_figure(&closures));
            emit.json("gap_closure", &closures);
            emit.bench(ctx.gap.quick, summary::summarize_e16(&closures));
            Ok(())
        },
    },
    Study {
        id: "E17",
        artifact: "Figure 8",
        title: "Scheduler ablation: spawn-per-call vs persistent work-stealing",
        run: |ctx, emit| {
            let points = schedstudy::run(&ctx.gap)?;
            emit.table("scheduler_ablation", &render::e17_table(&points));
            emit.figure("scheduler_ablation", &render::e17_figure(&points));
            emit.json("scheduler_ablation", &points);
            emit.bench(ctx.gap.quick, summary::summarize_e17(&points));
            Ok(())
        },
    },
    Study {
        id: "E18",
        artifact: "Figure 9",
        title: "Memory-hierarchy sweep: kernel tiers from L1 to DRAM",
        run: |ctx, emit| {
            let points = memstudy::run(&ctx.gap)?;
            emit.table("memory", &render::e18_table(&points));
            emit.figure("memory", &render::e18_figure(&points));
            emit.json("memory", &points);
            emit.bench(ctx.gap.quick, summary::summarize_e18(&points));
            Ok(())
        },
    },
    Study {
        id: "E19",
        artifact: "Figure 10",
        title: "Serving under overload: shedding, deadlines, and fault recovery",
        run: |ctx, emit| {
            let points = servestudy::run(ctx.seed, &ctx.gap)?;
            emit.table("serve", &render::e19_table(&points));
            emit.figure("serve", &render::e19_figure(&points));
            emit.json("serve", &points);
            emit.bench(ctx.gap.quick, summary::summarize_e19(&points));
            Ok(())
        },
    },
    Study {
        id: "E20",
        artifact: "Table 10",
        title: "Abstract interpretation: proofs, defect detection, static admission",
        run: |ctx, emit| {
            let study = absintstudy::run_study(ctx.seed, if ctx.gap.quick { 8 } else { 24 })?;
            let d = &study.density;
            let title = format!(
                "Table 10: abstract-interpretation detection of seeded defects \
                 (clean corpus: {} scripts, {} false positives; proofs: {}/{} \
                 finite-cost fns, {} farray returns, {} typed main vars)",
                study.n_clean,
                study.clean_with_findings,
                d.finite_cost_functions,
                d.n_functions,
                d.float_array_proofs,
                rcr_report::fmt::pct(d.typed_main_var_fraction),
            );
            emit.table("absint", &render::detection_table(&title, &study.classes));
            emit.table("admission", &render::e20_admission_table(&study));
            emit.figure(
                "absint",
                &render::detection_figure(
                    "Table 10 figure: abstract-interpretation detection rate by defect class",
                    &study.classes,
                ),
            );
            emit.json("absint", &study);
            emit.bench(ctx.gap.quick, summary::summarize_e20(&study));
            Ok(())
        },
    },
    Study {
        id: "E21",
        artifact: "Figure 11",
        title: "Columnar analytics: rows/sec vs population size and tier",
        run: |ctx, emit| {
            let points = colstudy::run(ctx.seed, &ctx.gap)?;
            emit.table("columnar", &render::e21_table(&points));
            emit.figure("columnar", &render::e21_figure(&points));
            emit.json("columnar", &points);
            emit.bench(ctx.gap.quick, summary::summarize_e21(&points));
            Ok(())
        },
    },
    Study {
        id: "E22",
        artifact: "Table 11",
        title: "Register-IR JIT: closing the remaining fused-VM-to-native gap",
        run: |ctx, emit| {
            let rows = jit_gap(ctx.gaps()?);
            emit.table("jit_gap", &render::e22_table(&rows));
            emit.figure("jit_gap", &render::e22_figure(&rows));
            emit.json("jit_gap", &rows);
            emit.bench(ctx.gap.quick, summary::summarize_e22(&rows));
            Ok(())
        },
    },
    Study {
        id: "E23",
        artifact: "Figure 12",
        title: "Cluster DES at scale: serial and windowed-parallel replay",
        run: |ctx, emit| {
            let points = simstudy::run(ctx.seed, &ctx.gap)?;
            emit.table("simstudy", &render::e23_table(&points));
            emit.figure("simstudy", &render::e23_figure(&points));
            emit.json("simstudy", &points);
            emit.bench(ctx.gap.quick, summary::summarize_e23(&points));
            Ok(())
        },
    },
];

/// Writes one study's outputs: tables to stdout, and with an output
/// directory also `<id>_<name>.{txt,csv,svg,json}` files and the
/// `BENCH_<ID>.json` summary.
///
/// A file that cannot be written ends the process with exit status 1,
/// so a run that lost an artifact never exits successfully.
#[derive(Debug)]
pub struct Emitter {
    study: Study,
    prefix: String,
    out: Option<PathBuf>,
}

impl Emitter {
    /// An emitter for `study`, writing files to `out` when given.
    pub fn new(study: Study, out: Option<&Path>) -> Self {
        Emitter {
            study,
            prefix: study.id.to_lowercase(),
            out: out.map(Path::to_path_buf),
        }
    }

    /// Prints `t`, and writes it as `.txt` and `.csv`.
    pub fn table(&self, name: &str, t: &Table) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{}", t.render_ascii());
        self.write(&format!("{}_{name}.txt", self.prefix), &t.render_ascii());
        self.write(&format!("{}_{name}.csv", self.prefix), &t.render_csv());
    }

    /// Prints a free-text line.
    pub fn note(&self, text: &str) {
        println!("{text}\n");
    }

    /// Writes an SVG figure.
    pub fn figure(&self, name: &str, svg: &str) {
        let id = &self.prefix;
        if self.out.is_some() {
            self.write(&format!("{id}_{name}.svg"), svg);
            println!("[wrote figure {id}_{name}.svg]\n");
        } else {
            println!("[figure {id}_{name}: rerun with --out DIR to write the SVG]\n");
        }
    }

    /// Writes `value` as pretty-printed JSON.
    pub fn json<T: serde::Serialize>(&self, name: &str, value: &T) {
        if self.out.is_some() {
            let payload =
                serde_json::to_string_pretty(value).expect("experiment outputs serialize");
            self.write(&format!("{}_{name}.json", self.prefix), &payload);
        }
    }

    /// Writes the `BENCH_<ID>.json` summary of `metrics`, its header taken
    /// from this emitter's study.
    pub fn bench(&self, quick: bool, metrics: Vec<Metric>) {
        if self.out.is_some() {
            let s = BenchSummary::new(&self.study, quick, metrics);
            let payload = serde_json::to_string_pretty(&s).expect("bench summaries serialize");
            self.write(&format!("BENCH_{}.json", s.experiment), &payload);
            println!(
                "[wrote BENCH_{}.json: {} metrics, checksum {}]\n",
                s.experiment,
                s.metrics.len(),
                s.checksum
            );
        }
    }

    fn write(&self, name: &str, contents: &str) {
        let Some(dir) = &self.out else { return };
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_run_e1_to_e23_in_order() {
        let mut lower: Vec<String> = STUDIES.iter().map(|s| s.id.to_lowercase()).collect();
        lower.sort();
        lower.dedup();
        assert_eq!(lower.len(), STUDIES.len(), "ids collide case-insensitively");
        for (s, n) in STUDIES.iter().zip(1..) {
            assert_eq!(s.id, format!("E{n}"));
        }
    }

    #[test]
    fn bench_headers_come_from_their_own_entry() {
        let dir = std::env::temp_dir().join(format!("rcr-studies-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create output dir");
        for study in STUDIES {
            Emitter::new(study, Some(&dir)).bench(true, Vec::new());
            let path = dir.join(format!("BENCH_{}.json", study.id));
            let text = std::fs::read_to_string(&path).expect("summary written");
            let v: serde_json::Value = serde_json::from_str(&text).expect("summary parses");
            let field = |k: &str| v[k].as_str().unwrap_or_default().to_owned();
            assert_eq!(
                (field("experiment"), field("artifact"), field("title")),
                (study.id.into(), study.artifact.into(), study.title.into())
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
