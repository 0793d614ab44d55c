//! The drivers that tie each survey question or cluster workload to the
//! master seed: E1–E4, E7–E10 and E12–E14. The `rcr_bench::STUDIES` table
//! maps every experiment id E1–E23 to its run function; the performance
//! studies call their own modules directly.

use serde::Serialize;

use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::metrics::{wait_cdf, Summary};
use rcr_cluster::sched::Policy;
use rcr_cluster::sim::Simulator;
use rcr_cluster::workload::{generate_checked, WorkloadSpec};
use rcr_survey::cohort::Cohort;
use rcr_synth::calibration::Wave;
use rcr_synth::generator::Generator;

use crate::compare::{
    compare_likert_battery, compare_multi_choice, distribution_shift, gpu_by_field,
    DistributionShift, FieldAdoption, ItemShift, LikertShift,
};
use crate::questionnaire as q;
use crate::trend::{language_trends, LanguageTrend};
use crate::Result;

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

    /// E2: language usage shift table.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e2_language_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        compare_multi_choice(&before, &after, q::Q_LANGS)
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

    /// E4: parallelism usage shift table.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e4_parallelism_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        compare_multi_choice(&before, &after, q::Q_PARALLELISM)
    }

    /// E7: software-engineering practice shift table.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e7_practice_shift(&self) -> Result<Vec<ItemShift>> {
        let (before, after) = self.cohorts();
        compare_multi_choice(&before, &after, q::Q_PRACTICES)
    }

    /// E8: GPU adoption by field in the 2024 cohort.
    ///
    /// # Errors
    /// Survey/statistics errors.
    pub fn e8_gpu_by_field(&self) -> Result<Vec<FieldAdoption>> {
        let (_, after) = self.cohorts();
        gpu_by_field(&after)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfgap::GapConfig;
    use crate::MASTER_SEED;

    fn ex() -> Experiments {
        Experiments::new(MASTER_SEED)
    }

    #[test]
    fn e21_quick_sweep_has_expected_shape() {
        let points = crate::colstudy::run(MASTER_SEED, &GapConfig::quick()).unwrap();
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
        let points = crate::simstudy::run(MASTER_SEED, &GapConfig::quick()).unwrap();
        assert_eq!(points.len(), 4);
        for cell in points.chunks(2) {
            assert!(cell
                .iter()
                .all(|p| p.verified && p.checksum == cell[0].checksum));
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
