//! The experiment registry: one driver per table/figure (E1–E23), all
//! deterministic from one master seed. `DESIGN.md` §4 is the index; the
//! `reproduce` binary calls these drivers.
//!
//! The survey tabulation experiments (E1–E4, E7, E8) each have a
//! `*_columnar` companion built on [`rcr_survey::columnar`]; the
//! companions are bitwise identical to the row drivers (a test below
//! gates this) and E21 measures the speed difference at scale.

use serde::Serialize;

use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::metrics::{wait_cdf, Summary};
use rcr_cluster::sched::Policy;
use rcr_cluster::sim::Simulator;
use rcr_cluster::workload::{generate_checked, WorkloadSpec};
use rcr_survey::cohort::Cohort;
use rcr_survey::columnar::{ColumnarCohort, Engine};
use rcr_synth::calibration::Wave;
use rcr_synth::generator::Generator;

use crate::absintstudy::AbsintStudy;
use crate::colstudy::ColPoint;
use crate::compare::{
    compare_likert_battery, compare_multi_choice, compare_multi_choice_columnar,
    distribution_shift, gpu_by_field, gpu_by_field_columnar, DistributionShift, FieldAdoption,
    ItemShift, LikertShift,
};
use crate::jitstudy::JitGapRow;
use crate::lintstudy::{run_study, LintStudy};
use crate::memstudy::MemPoint;
use crate::perfgap::{
    gap_closure, measure_gaps, measure_scaling, GapClosure, GapConfig, KernelGap, ScalingCurve,
};
use crate::questionnaire as q;
use crate::schedstudy::SchedPoint;
use crate::servestudy::ServePoint;
use crate::simstudy::SimPoint;
use crate::trend::{language_trends, language_trends_columnar, LanguageTrend};
use crate::Result;

/// Metadata for one experiment.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ExperimentInfo {
    /// Identifier, e.g. `"E2"`.
    pub id: &'static str,
    /// What the paper artifact is, e.g. `"Table 2"`.
    pub artifact: &'static str,
    /// Short title.
    pub title: &'static str,
}

/// The experiment index (matches `DESIGN.md` §4).
pub const INDEX: [ExperimentInfo; 23] = [
    ExperimentInfo {
        id: "E1",
        artifact: "Table 1",
        title: "Respondent demographics (2024)",
    },
    ExperimentInfo {
        id: "E2",
        artifact: "Table 2",
        title: "Language usage 2011 vs 2024",
    },
    ExperimentInfo {
        id: "E3",
        artifact: "Figure 1",
        title: "Language adoption trends",
    },
    ExperimentInfo {
        id: "E4",
        artifact: "Table 3",
        title: "Parallelism usage shift",
    },
    ExperimentInfo {
        id: "E5",
        artifact: "Figure 2",
        title: "Interpreted-vs-native performance gap",
    },
    ExperimentInfo {
        id: "E6",
        artifact: "Figure 3",
        title: "Thread scaling and Amdahl fits",
    },
    ExperimentInfo {
        id: "E7",
        artifact: "Table 4",
        title: "Software-engineering practice adoption",
    },
    ExperimentInfo {
        id: "E8",
        artifact: "Table 5",
        title: "GPU adoption by field (2024)",
    },
    ExperimentInfo {
        id: "E9",
        artifact: "Figure 4",
        title: "Scheduler policy wait-time CDF",
    },
    ExperimentInfo {
        id: "E10",
        artifact: "Figure 5",
        title: "Utilization and wait vs offered load",
    },
    ExperimentInfo {
        id: "E11",
        artifact: "Table 6",
        title: "Interpreter-tier ablation",
    },
    ExperimentInfo {
        id: "E12",
        artifact: "Figure 6",
        title: "Pain-point Likert shift",
    },
    ExperimentInfo {
        id: "E13",
        artifact: "Table 7",
        title: "Coded free-text obstacles",
    },
    ExperimentInfo {
        id: "E14",
        artifact: "Figure 7",
        title: "Resilience: goodput and wasted work vs node MTBF",
    },
    ExperimentInfo {
        id: "E15",
        artifact: "Table 8",
        title: "Static-analysis defect detection (seeded injection)",
    },
    ExperimentInfo {
        id: "E16",
        artifact: "Table 9",
        title: "Superinstruction VM gap closure",
    },
    ExperimentInfo {
        id: "E17",
        artifact: "Figure 8",
        title: "Scheduler ablation: spawn-per-call vs persistent work-stealing",
    },
    ExperimentInfo {
        id: "E18",
        artifact: "Figure 9",
        title: "Memory-hierarchy sweep: kernel tiers from L1 to DRAM",
    },
    ExperimentInfo {
        id: "E19",
        artifact: "Figure 10",
        title: "Serving under overload: shedding, deadlines, and fault recovery",
    },
    ExperimentInfo {
        id: "E20",
        artifact: "Table 10",
        title: "Abstract interpretation: proofs, defect detection, static admission",
    },
    ExperimentInfo {
        id: "E21",
        artifact: "Figure 11",
        title: "Columnar analytics: rows/sec vs population size and tier",
    },
    ExperimentInfo {
        id: "E22",
        artifact: "Table 11",
        title: "Register-IR JIT: closing the remaining fused-VM-to-native gap",
    },
    ExperimentInfo {
        id: "E23",
        artifact: "Figure 12",
        title: "Cluster DES at scale: serial and windowed-parallel replay",
    },
];

/// E1 output: a field × career-stage count grid.
#[derive(Debug, Clone, Serialize)]
pub struct Demographics {
    /// Row labels (fields).
    pub fields: Vec<String>,
    /// Column labels (stages).
    pub stages: Vec<String>,
    /// Row-major counts.
    pub counts: Vec<u64>,
    /// Cohort size.
    pub n: usize,
    /// Mean questionnaire completion rate.
    pub mean_completion: f64,
}

/// E9 output: one scheduling policy's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct PolicyOutcome {
    /// Policy name.
    pub policy: String,
    /// Aggregate metrics.
    pub mean_wait: f64,
    /// Median wait.
    pub median_wait: f64,
    /// P90 wait.
    pub p90_wait: f64,
    /// Mean bounded slowdown.
    pub mean_slowdown: f64,
    /// Utilization.
    pub utilization: f64,
    /// Jain fairness index over bounded slowdowns (1 = equal pain).
    pub slowdown_fairness: f64,
    /// Wait-time CDF, subsampled to ≤ 200 points for plotting.
    pub cdf: Vec<(f64, f64)>,
}

/// E10 output: one (load, policy) sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Offered load.
    pub load: f64,
    /// Policy name.
    pub policy: String,
    /// Mean wait at this load.
    pub mean_wait: f64,
    /// P90 wait.
    pub p90_wait: f64,
    /// Achieved utilization.
    pub utilization: f64,
}

/// E14 output: one (MTBF, recovery, policy) sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct ResiliencePoint {
    /// Per-node mean time between failures, hours.
    pub mtbf_hours: f64,
    /// Scheduling policy name.
    pub policy: String,
    /// Recovery policy name (e.g. `Checkpoint(τ=300s)`).
    pub recovery: String,
    /// Jobs that finished.
    pub completed: usize,
    /// Jobs abandoned after exhausting their retry budget.
    pub abandoned: usize,
    /// Node failures injected.
    pub node_failures: usize,
    /// Useful node-hours delivered.
    pub goodput_node_hours: f64,
    /// Wasted node-hours (lost attempts, checkpoint overhead, abandoned
    /// work).
    pub badput_node_hours: f64,
    /// `badput / (goodput + badput)`.
    pub wasted_fraction: f64,
    /// Mean attempts per resolved job.
    pub mean_attempts: f64,
}

/// The experiment driver set, parameterized by the master seed.
#[derive(Debug, Clone, Copy)]
pub struct Experiments {
    seed: u64,
}

impl Experiments {
    /// Creates the driver set.
    pub fn new(seed: u64) -> Self {
        Experiments { seed }
    }

    /// The two survey cohorts at their canonical sizes.
    pub fn cohorts(&self) -> (Cohort, Cohort) {
        let g = Generator::new(self.seed);
        (
            g.cohort(Wave::Y2011, Wave::Y2011.default_n()),
            g.cohort(Wave::Y2024, Wave::Y2024.default_n()),
        )
    }

    /// The same two cohorts in columnar form, emitted straight into columns
    /// by the streaming generator — identical data to
    /// [`Experiments::cohorts`] (same RNG streams, same draws), no
    /// intermediate `Response` structs.
    pub fn columnar_cohorts(&self) -> (ColumnarCohort, ColumnarCohort) {
        let g = Generator::new(self.seed);
        (
            g.columnar_cohort(Wave::Y2011, Wave::Y2011.default_n()),
            g.columnar_cohort(Wave::Y2024, Wave::Y2024.default_n()),
        )
    }

    /// E1: demographics grid of the 2024 cohort.
    ///
    /// # Errors
    /// Survey errors (none expected on generated cohorts).
    pub fn e1_demographics(&self) -> Result<Demographics> {
        let (_, after) = self.cohorts();
        let fields: Vec<String> = q::FIELDS.iter().map(|s| (*s).to_owned()).collect();
        let stages: Vec<String> = q::STAGES.iter().map(|s| (*s).to_owned()).collect();
        let mut counts = vec![0u64; fields.len() * stages.len()];
        for r in after.responses() {
            let f = r.answer(q::Q_FIELD).and_then(|a| a.as_choice());
            let s = r.answer(q::Q_STAGE).and_then(|a| a.as_choice());
            if let (Some(f), Some(s)) = (f, s) {
                let fi = q::FIELDS.iter().position(|x| *x == f).expect("valid field");
                let si = q::STAGES.iter().position(|x| *x == s).expect("valid stage");
                counts[fi * stages.len() + si] += 1;
            }
        }
        Ok(Demographics {
            fields,
            stages,
            counts,
            n: after.len(),
            mean_completion: after.mean_completion(),
        })
    }

    /// E1 on the columnar engine: the field × stage grid is one
    /// [`Engine::crosstab`] call instead of a per-respondent scan.
    /// Bitwise identical to [`Experiments::e1_demographics`].
    ///
    /// # Errors
    /// Survey errors (none expected on generated cohorts).
    pub fn e1_demographics_columnar(&self) -> Result<Demographics> {
        let (_, after) = self.columnar_cohorts();
        let ct = Engine::serial().crosstab(&after, q::Q_FIELD, q::Q_STAGE, None)?;
        Ok(Demographics {
            fields: ct.row_options,
            stages: ct.col_options,
            counts: ct.counts,
            n: after.n_rows(),
            mean_completion: after.mean_completion(),
        })
    }

    /// E2: language usage shift table.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e2_language_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        compare_multi_choice(&before, &after, q::Q_LANGS)
    }

    /// E2 on the columnar engine (bitwise identical).
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e2_language_shift_columnar(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.columnar_cohorts();
        compare_multi_choice_columnar(&before, &after, q::Q_LANGS)
    }

    /// E2 companion: omnibus shift of the primary-language distribution.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e2_primary_language_omnibus(&self) -> Result<DistributionShift> {
        let (before, after) = self.cohorts();
        distribution_shift(&before, &after, q::Q_PRIMARY_LANG)
    }

    /// E3: yearly language-adoption trends (the headline figure's five
    /// languages).
    ///
    /// # Errors
    /// Statistics errors.
    pub fn e3_language_trends(&self) -> Result<Vec<LanguageTrend>> {
        language_trends(
            self.seed,
            400,
            &["python", "matlab", "fortran", "r", "julia"],
        )
    }

    /// E3 on the columnar engine: the yearly cohorts stream straight into
    /// columns and the shares come from bitmap popcounts (bitwise
    /// identical).
    ///
    /// # Errors
    /// Statistics errors.
    pub fn e3_language_trends_columnar(&self) -> Result<Vec<LanguageTrend>> {
        language_trends_columnar(
            self.seed,
            400,
            &["python", "matlab", "fortran", "r", "julia"],
        )
    }

    /// E4: parallelism usage shift table.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e4_parallelism_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        compare_multi_choice(&before, &after, q::Q_PARALLELISM)
    }

    /// E4 on the columnar engine (bitwise identical).
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e4_parallelism_shift_columnar(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.columnar_cohorts();
        compare_multi_choice_columnar(&before, &after, q::Q_PARALLELISM)
    }

    /// E5: the interpreted-vs-native performance gap.
    ///
    /// # Errors
    /// Script / verification errors.
    pub fn e5_perf_gap(&self, config: &GapConfig) -> Result<Vec<KernelGap>> {
        measure_gaps(config)
    }

    /// E6: thread-scaling curves with Amdahl fits.
    ///
    /// # Errors
    /// Statistics errors from the fits.
    pub fn e6_scaling(&self, config: &GapConfig) -> Result<Vec<ScalingCurve>> {
        measure_scaling(config)
    }

    /// E7: software-engineering practice shift table.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e7_practice_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        compare_multi_choice(&before, &after, q::Q_PRACTICES)
    }

    /// E7 on the columnar engine (bitwise identical).
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e7_practice_shift_columnar(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.columnar_cohorts();
        compare_multi_choice_columnar(&before, &after, q::Q_PRACTICES)
    }

    /// E8: GPU adoption by field in the 2024 cohort.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e8_gpu_by_field(&self) -> Result<Vec<FieldAdoption>> {
        let (_, after) = self.cohorts();
        gpu_by_field(&after)
    }

    /// E8 on the columnar engine: the 2×2 cells per field come from
    /// bitmap intersections (bitwise identical).
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e8_gpu_by_field_columnar(&self) -> Result<Vec<FieldAdoption>> {
        let (_, after) = self.columnar_cohorts();
        gpu_by_field_columnar(&after)
    }

    /// E9: scheduler policy comparison at the canonical workload.
    ///
    /// # Errors
    /// Cluster-simulation errors.
    pub fn e9_sched_policies(&self, n_jobs: usize) -> Result<Vec<PolicyOutcome>> {
        let spec = WorkloadSpec {
            n_jobs,
            ..Default::default()
        };
        let jobs = generate_checked(&spec, self.seed)?;
        let mut out = Vec::new();
        for policy in Policy::ALL {
            let outcome = Simulator::new(spec.cluster_nodes, policy).run(jobs.clone())?;
            let s: Summary = outcome
                .try_summary()
                .ok_or_else(|| crate::Error::VerificationFailed("E9: no jobs completed".into()))?;
            let full_cdf = wait_cdf(&outcome.completed);
            let stride = (full_cdf.len() / 200).max(1);
            let cdf: Vec<(f64, f64)> = full_cdf.into_iter().step_by(stride).collect();
            out.push(PolicyOutcome {
                policy: policy.name().to_owned(),
                mean_wait: s.mean_wait,
                median_wait: s.median_wait,
                p90_wait: s.p90_wait,
                mean_slowdown: s.mean_slowdown,
                utilization: s.utilization,
                slowdown_fairness: s.slowdown_fairness,
                cdf,
            });
        }
        Ok(out)
    }

    /// E10: load sweep for all policies.
    ///
    /// # Errors
    /// Cluster-simulation errors.
    pub fn e10_load_sweep(&self, n_jobs: usize, loads: &[f64]) -> Result<Vec<LoadPoint>> {
        let mut out = Vec::new();
        for &load in loads {
            let spec = WorkloadSpec {
                n_jobs,
                offered_load: load,
                ..Default::default()
            };
            let jobs = generate_checked(&spec, self.seed ^ load.to_bits())?;
            for policy in Policy::ALL {
                let s = Simulator::new(spec.cluster_nodes, policy)
                    .run(jobs.clone())?
                    .try_summary()
                    .ok_or_else(|| {
                        crate::Error::VerificationFailed("E10: no jobs completed".into())
                    })?;
                out.push(LoadPoint {
                    load,
                    policy: policy.name().to_owned(),
                    mean_wait: s.mean_wait,
                    p90_wait: s.p90_wait,
                    utilization: s.utilization,
                });
            }
        }
        Ok(out)
    }

    /// E11: interpreter-tier ablation (reuses the E5 measurements; the
    /// table reports script tiers against native-optimized).
    ///
    /// # Errors
    /// Script / verification errors.
    pub fn e11_interp_ablation(&self, config: &GapConfig) -> Result<Vec<KernelGap>> {
        measure_gaps(config)
    }

    /// E12: pain-point Likert battery shift.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e12_pain_points(&self) -> Result<Vec<LikertShift>> {
        let (before, after) = self.cohorts();
        compare_likert_battery(&before, &after, &q::PAIN_ITEMS)
    }

    /// E13: qualitative coding of the free-text "biggest obstacle" answers,
    /// compared across waves with the canonical code book.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e13_theme_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        let book = rcr_survey::coding::canonical_code_book();
        crate::compare::compare_themes(&before, &after, &book, q::Q_COMMENTS)
    }

    /// E14: resilience sweep — goodput and wasted work vs per-node MTBF,
    /// Resubmit vs Checkpoint(τ) recovery, FCFS vs EASY backfill.
    ///
    /// The same workload and the same fault seed (per MTBF level) are
    /// replayed under every (recovery, policy) pair, so the comparison uses
    /// common random numbers.
    ///
    /// # Errors
    /// Cluster-simulation errors.
    pub fn e14_resilience(&self, n_jobs: usize) -> Result<Vec<ResiliencePoint>> {
        const MTBF_HOURS: [f64; 5] = [2.0, 4.0, 8.0, 16.0, 32.0];
        // E14 uses a tamer workload than E9: a shorter runtime tail, and job
        // width capped at a quarter of the machine. Full-width jobs would
        // need every node up at once — essentially impossible at a 2-hour
        // MTBF — and a single monster job would dominate the goodput
        // accounting, drowning the MTBF signal the figure is about.
        let spec = WorkloadSpec {
            n_jobs,
            runtime_log_mean: 5.5,
            runtime_log_sd: 0.8,
            ..Default::default()
        };
        let mut jobs = generate_checked(&spec, self.seed ^ 0xFA17)?;
        let width_cap = spec.cluster_nodes / 4;
        for j in &mut jobs {
            j.nodes = j.nodes.min(width_cap);
        }
        let recoveries = [
            RecoveryPolicy::Resubmit {
                max_retries: 3,
                backoff_base: 300.0,
            },
            RecoveryPolicy::Checkpoint {
                interval: 120.0,
                overhead: 10.0,
                max_retries: 3,
            },
        ];
        let mut out = Vec::new();
        for &mtbf_hours in &MTBF_HOURS {
            for recovery in recoveries {
                for policy in [Policy::Fcfs, Policy::EasyBackfill] {
                    let faults = FaultSpec {
                        node_mtbf: mtbf_hours * 3600.0,
                        repair_time: 1800.0,
                        job_failure_prob: 0.02,
                        recovery,
                        seed: self.seed ^ mtbf_hours.to_bits(),
                    };
                    let outcome = Simulator::new(spec.cluster_nodes, policy)
                        .with_faults(faults)?
                        .run(jobs.clone())?;
                    let r = outcome.resilience();
                    out.push(ResiliencePoint {
                        mtbf_hours,
                        policy: policy.name().to_owned(),
                        recovery: recovery.name(),
                        completed: r.completed,
                        abandoned: r.abandoned,
                        node_failures: r.node_failures,
                        goodput_node_hours: r.goodput / 3600.0,
                        badput_node_hours: r.badput / 3600.0,
                        wasted_fraction: r.wasted_fraction,
                        mean_attempts: r.mean_attempts,
                    });
                }
            }
        }
        Ok(out)
    }

    /// E15: the seeded defect-injection study — per-class detection rates
    /// of the `rsc --check` analyzer, plus the false-positive probe on the
    /// unmutated corpus.
    ///
    /// # Errors
    /// Script errors when a generated clean script fails to parse, lint
    /// non-silent, or fails to run.
    pub fn e15_lint_detection(&self, n_per_class: usize) -> Result<LintStudy> {
        run_study(self.seed, n_per_class)
    }

    /// E16: per-workload closure of the bytecode-VM → native gap by the
    /// peephole / superinstruction pass (reuses the E5 measurement
    /// machinery; every tier is verified before timing).
    ///
    /// # Errors
    /// Script / verification errors.
    pub fn e16_gap_closure(&self, config: &GapConfig) -> Result<Vec<GapClosure>> {
        Ok(gap_closure(&measure_gaps(config)?))
    }

    /// E17: the scheduler ablation — spawn-per-call static and dynamic
    /// runtimes vs the persistent work-stealing pool across regular,
    /// irregular, fine-grained, and null workloads, with every arm's
    /// output checksum verified against the serial reference.
    ///
    /// # Errors
    /// [`crate::Error::VerificationFailed`] when an arm's result diverges.
    pub fn e17_sched_ablation(&self, config: &GapConfig) -> Result<Vec<SchedPoint>> {
        crate::schedstudy::run(config)
    }

    /// E18: the memory-hierarchy sweep — six kernels at L1/L2/LLC/DRAM
    /// working-set sizes under serial, SIMD, parallel, and parallel+SIMD
    /// tiers, reporting GFLOP/s and effective GB/s per cell. Every tier's
    /// result is verified against the serial reference before timing.
    ///
    /// # Errors
    /// [`crate::Error::VerificationFailed`] when a tier's result diverges.
    pub fn e18_memory(&self, config: &GapConfig) -> Result<Vec<MemPoint>> {
        crate::memstudy::run(config)
    }

    /// E19: the serving overload study — the `rcr-serve` execution service
    /// offered 0.5×/1×/2× its measured saturation throughput under a fault
    /// ablation (none/moderate/heavy), reporting sustained throughput,
    /// latency percentiles, shed rate, retry success, and goodput/badput.
    /// Each cell's robustness contract (closed outcome space, no hangs,
    /// completed p99 within the deadline) is verified before its numbers
    /// are reported.
    ///
    /// # Errors
    /// [`crate::Error::VerificationFailed`] when a cell violates the
    /// contract.
    pub fn e19_serve(&self, config: &GapConfig) -> Result<Vec<ServePoint>> {
        crate::servestudy::run(self.seed, config)
    }

    /// E20: the abstract-interpretation study — detection rates of the
    /// interval/shape/cost defect classes (W008–W012), the false-positive
    /// probe, proved-fact density over the clean corpus, and the
    /// static-admission comparison on a mixed feasible/infeasible workload
    /// (every cross-arm claim verified before the numbers are reported).
    ///
    /// # Errors
    /// Script errors when a generated clean script misbehaves;
    /// [`crate::Error::VerificationFailed`] when an admission arm breaks
    /// its contract.
    pub fn e20_absint(&self, n_per_class: usize) -> Result<AbsintStudy> {
        crate::absintstudy::run_study(self.seed, n_per_class)
    }

    /// E21: the columnar analytics scaling study — the four-query survey
    /// suite on populations from 10⁴ to 10⁷ respondents under the row
    /// engine and the serial/parallel columnar tiers, every cell's
    /// suite output verified against the row reference before timing (and
    /// the row tier itself against the `Cohort` API at the smallest size).
    ///
    /// # Errors
    /// [`crate::Error::VerificationFailed`] when a tier's result diverges.
    pub fn e21_colstudy(&self, config: &GapConfig) -> Result<Vec<ColPoint>> {
        crate::colstudy::run(self.seed, config)
    }

    /// E22: the register-IR JIT gap-closure study — the four perf-gap
    /// kernels across the tree-walk, bytecode-VM, fused-VM, and JIT
    /// tiers, every cell verified bit-identical across all four before
    /// its timing is trusted, with a best-serial native reference as the
    /// closure denominator.
    ///
    /// # Errors
    /// Script errors and [`crate::Error::VerificationFailed`] when any
    /// tier diverges by even one bit.
    pub fn e22_jitstudy(&self, config: &GapConfig) -> Result<Vec<JitGapRow>> {
        crate::jitstudy::run(config)
    }

    /// E23: the cluster-simulator scaling study — simulated events/sec on
    /// SWF trace replays through sharded federations, under the
    /// serial-heap and windowed-parallel arms, every arm's merged outcome
    /// digest-verified against the serial-heap reference (and its
    /// streamed replay against its materialized one) before any timing is
    /// trusted.
    ///
    /// # Errors
    /// [`crate::Error::VerificationFailed`] when any arm diverges by even
    /// one bit; cluster errors on malformed traces.
    pub fn e23_simstudy(&self, config: &GapConfig) -> Result<Vec<SimPoint>> {
        crate::simstudy::run(self.seed, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MASTER_SEED;

    fn ex() -> Experiments {
        Experiments::new(MASTER_SEED)
    }

    #[test]
    fn index_lists_twenty_three_unique_ids() {
        let mut ids: Vec<&str> = INDEX.iter().map(|i| i.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 23);
        assert_eq!(INDEX[0].id, "E1");
        assert_eq!(INDEX[11].artifact, "Figure 6");
        assert_eq!(INDEX[12].id, "E13");
        assert_eq!(INDEX[13].id, "E14");
        assert_eq!(INDEX[13].artifact, "Figure 7");
        assert_eq!(INDEX[14].id, "E15");
        assert_eq!(INDEX[14].artifact, "Table 8");
        assert_eq!(INDEX[15].id, "E16");
        assert_eq!(INDEX[15].artifact, "Table 9");
        assert_eq!(INDEX[16].id, "E17");
        assert_eq!(INDEX[16].artifact, "Figure 8");
        assert_eq!(INDEX[17].id, "E18");
        assert_eq!(INDEX[17].artifact, "Figure 9");
        assert_eq!(INDEX[18].id, "E19");
        assert_eq!(INDEX[18].artifact, "Figure 10");
        assert_eq!(INDEX[19].id, "E20");
        assert_eq!(INDEX[19].artifact, "Table 10");
        assert_eq!(INDEX[20].id, "E21");
        assert_eq!(INDEX[20].artifact, "Figure 11");
        assert_eq!(INDEX[21].id, "E22");
        assert_eq!(INDEX[21].artifact, "Table 11");
        assert_eq!(INDEX[22].id, "E23");
        assert_eq!(INDEX[22].artifact, "Figure 12");
    }

    /// The E21 acceptance gate: every columnar companion driver reproduces
    /// its row driver bitwise at the canonical cohort sizes.
    #[test]
    fn columnar_drivers_match_row_drivers_bitwise() {
        let e = ex();

        let row = e.e1_demographics().unwrap();
        let col = e.e1_demographics_columnar().unwrap();
        assert_eq!(row.fields, col.fields);
        assert_eq!(row.stages, col.stages);
        assert_eq!(row.counts, col.counts);
        assert_eq!(row.n, col.n);
        assert_eq!(row.mean_completion.to_bits(), col.mean_completion.to_bits());

        let shift_pairs = [
            (
                e.e2_language_shift().unwrap(),
                e.e2_language_shift_columnar().unwrap(),
            ),
            (
                e.e4_parallelism_shift().unwrap(),
                e.e4_parallelism_shift_columnar().unwrap(),
            ),
            (
                e.e7_practice_shift().unwrap(),
                e.e7_practice_shift_columnar().unwrap(),
            ),
        ];
        for (row, col) in &shift_pairs {
            assert_eq!(row.len(), col.len());
            for (a, b) in row.iter().zip(col) {
                assert_eq!(a.item, b.item);
                assert_eq!(
                    (a.count_before, a.count_after),
                    (b.count_before, b.count_after)
                );
                assert_eq!((a.n_before, a.n_after), (b.n_before, b.n_after));
                assert_eq!(a.z.to_bits(), b.z.to_bits(), "{}", a.item);
                assert_eq!(a.p_adj.to_bits(), b.p_adj.to_bits(), "{}", a.item);
                assert_eq!(a.cohens_h.to_bits(), b.cohens_h.to_bits(), "{}", a.item);
            }
        }

        let row = e.e8_gpu_by_field().unwrap();
        let col = e.e8_gpu_by_field_columnar().unwrap();
        assert_eq!(row.len(), col.len());
        for (a, b) in row.iter().zip(&col) {
            assert_eq!(a.field, b.field);
            assert_eq!((a.gpu_users, a.n_field), (b.gpu_users, b.n_field));
            assert_eq!(a.share.to_bits(), b.share.to_bits());
            assert_eq!(a.p_raw.to_bits(), b.p_raw.to_bits());
        }
    }

    /// E3's columnar companion is exercised at a reduced size in
    /// `crate::trend`'s tests; here we only check the full-size driver
    /// shape to keep the suite fast.
    #[test]
    fn e21_quick_sweep_has_expected_shape() {
        let points = ex().e21_colstudy(&GapConfig::quick()).unwrap();
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.verified);
        }
        for pair in points.chunks(3) {
            assert!(pair.iter().all(|p| p.checksum == pair[0].checksum));
        }
    }

    #[test]
    fn e23_quick_sweep_verifies_every_arm() {
        let points = ex().e23_simstudy(&GapConfig::quick()).unwrap();
        assert_eq!(points.len(), 4);
        for cell in points.chunks(2) {
            assert!(cell
                .iter()
                .all(|p| p.verified && p.checksum == cell[0].checksum));
        }
    }

    #[test]
    fn e15_detects_structural_defects_with_no_false_positives() {
        let study = ex().e15_lint_detection(10).unwrap();
        assert_eq!(study.clean_with_findings, 0);
        assert_eq!(study.classes.len(), 5);
        for c in &study.classes {
            assert!(
                c.detection_rate > 0.5,
                "{}: detection rate {} too low",
                c.class,
                c.detection_rate
            );
        }
    }

    #[test]
    fn e13_theme_rows() {
        let rows = ex().e13_theme_shift().unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().any(|r| r.item == "reproducibility"));
    }

    #[test]
    fn e1_demographics_totals() {
        let d = ex().e1_demographics().unwrap();
        assert_eq!(d.fields.len(), 8);
        assert_eq!(d.stages.len(), 4);
        // Screeners are always answered, so counts cover the whole cohort.
        assert_eq!(d.counts.iter().sum::<u64>(), d.n as u64);
        assert_eq!(d.n, 720);
        assert!(d.mean_completion > 0.9);
    }

    #[test]
    fn e2_and_e4_and_e7_shift_directions() {
        let e = ex();
        let langs = e.e2_language_shift().unwrap();
        assert!(langs.iter().find(|s| s.item == "python").expect("python").z > 0.0);
        let omni = e.e2_primary_language_omnibus().unwrap();
        assert!(omni.p_value < 0.01);

        let par = e.e4_parallelism_shift().unwrap();
        let gpu = par.iter().find(|s| s.item == "gpu").expect("gpu row");
        assert!(gpu.p_after > gpu.p_before);
        let none = par.iter().find(|s| s.item == "none").expect("none row");
        assert!(none.p_after < none.p_before);

        let prac = e.e7_practice_shift().unwrap();
        let vcs = prac
            .iter()
            .find(|s| s.item == "version-control")
            .expect("vcs row");
        assert!(vcs.significant(0.01));
        assert!(vcs.p_after > 2.0 * vcs.p_before);
    }

    #[test]
    fn e3_trends_cover_five_languages() {
        let trends = ex().e3_language_trends().unwrap();
        assert_eq!(trends.len(), 5);
        assert!(trends.iter().any(|t| t.language == "julia"));
    }

    #[test]
    fn e8_rows_per_field() {
        let rows = ex().e8_gpu_by_field().unwrap();
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn e9_policies_ranked_as_expected() {
        let outcomes = ex().e9_sched_policies(600).unwrap();
        assert_eq!(outcomes.len(), 4);
        let wait_of = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.policy == name)
                .expect("policy present")
                .mean_wait
        };
        // Both backfill variants beat FCFS on this contended workload.
        assert!(wait_of("EASY-backfill") < wait_of("FCFS"));
        assert!(wait_of("conservative-BF") < wait_of("FCFS"));
        for o in &outcomes {
            assert!(!o.cdf.is_empty() && o.cdf.len() <= 201);
            assert!(o.utilization > 0.1 && o.utilization <= 1.0);
            assert!(o.mean_slowdown >= 1.0);
            assert!(o.median_wait <= o.p90_wait);
            assert!(o.slowdown_fairness > 0.0 && o.slowdown_fairness <= 1.0);
        }
    }

    #[test]
    fn e10_wait_grows_with_load() {
        let pts = ex().e10_load_sweep(400, &[0.5, 0.9]).unwrap();
        assert_eq!(pts.len(), 8);
        let wait = |load: f64, policy: &str| {
            pts.iter()
                .find(|p| p.load == load && p.policy == policy)
                .expect("sweep point")
                .mean_wait
        };
        for policy in ["FCFS", "SJF", "EASY-backfill"] {
            assert!(
                wait(0.9, policy) > wait(0.5, policy),
                "{policy}: wait must grow with load"
            );
        }
    }

    #[test]
    fn e12_pain_rows() {
        let rows = ex().e12_pain_points().unwrap();
        assert_eq!(rows.len(), 6);
    }

    #[test]
    fn e14_resilience_shapes_hold() {
        let pts = ex().e14_resilience(300).unwrap();
        // 5 MTBF levels x 2 recoveries x 2 policies.
        assert_eq!(pts.len(), 20);
        let find = |mtbf: f64, rec: &str, pol: &str| {
            pts.iter()
                .find(|p| p.mtbf_hours == mtbf && p.recovery.starts_with(rec) && p.policy == pol)
                .expect("sweep point")
        };
        for pol in ["FCFS", "EASY-backfill"] {
            // Checkpointing recovers goodput at the harshest MTBF…
            let cp = find(2.0, "Checkpoint", pol);
            let rs = find(2.0, "Resubmit", pol);
            assert!(
                cp.goodput_node_hours >= rs.goodput_node_hours,
                "{pol}: checkpoint goodput {} < resubmit {}",
                cp.goodput_node_hours,
                rs.goodput_node_hours
            );
            assert!(
                cp.abandoned <= rs.abandoned,
                "{pol}: checkpointing abandons more"
            );
            // …and the wasted-work fraction grows as MTBF shrinks.
            for rec in ["Resubmit", "Checkpoint"] {
                let harsh = find(2.0, rec, pol);
                let calm = find(32.0, rec, pol);
                assert!(
                    harsh.wasted_fraction > calm.wasted_fraction,
                    "{pol}/{rec}: waste must grow as MTBF shrinks \
                     ({} vs {})",
                    harsh.wasted_fraction,
                    calm.wasted_fraction
                );
                assert!(harsh.node_failures > calm.node_failures);
            }
        }
        for p in &pts {
            assert_eq!(p.completed + p.abandoned, 300, "conservation");
            assert!(p.goodput_node_hours > 0.0);
            assert!((0.0..1.0).contains(&p.wasted_fraction));
            assert!(p.mean_attempts >= 1.0);
        }
    }

    #[test]
    fn e14_is_deterministic() {
        let a = ex().e14_resilience(150).unwrap();
        let b = ex().e14_resilience(150).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.goodput_node_hours, y.goodput_node_hours);
            assert_eq!(x.badput_node_hours, y.badput_node_hours);
            assert_eq!(x.node_failures, y.node_failures);
            assert_eq!(x.completed, y.completed);
        }
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = ex().e2_language_shift().unwrap();
        let b = ex().e2_language_shift().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.count_after, y.count_after);
            assert_eq!(x.p_raw, y.p_raw);
        }
    }
}
