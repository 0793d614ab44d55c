//! E20 (Table 10): what the abstract interpreter buys, measured three ways.
//!
//! The E15 defect-injection protocol covered the *classic* dataflow lints
//! (W001–W007). This study extends it to the defect classes only the
//! abstract-interpretation lattice can see — a division whose denominator
//! is provably zero through dataflow (W008), an index provably outside an
//! array's length interval (W009), an operator applied to impossible type
//! sets (W010), a numeric builtin fed a provably out-of-domain argument
//! (W011), and a loop the fixpoint proves cannot terminate (W012) — and
//! adds two measurements the lint protocol cannot express:
//!
//! 1. **Proved-fact density.** Over the *clean* corpus: how many functions
//!    get a finite static cost interval, how many are proven to return
//!    `FloatArray` (the fact the peephole fuser consumes), and what
//!    fraction of top-level variables end the program with a type set
//!    narrower than ⊤.
//! 2. **Static admission.** The `rcr-serve` arm: a workload mixing
//!    feasible scripts with statically infeasible ones (fuel lower bound
//!    above the tenant quota, including a provably divergent program) is
//!    run twice — static admission on vs off — and the study verifies the
//!    on-arm sheds every infeasible job *before* it costs a queue slot or
//!    a compile, while the off-arm burns quota discovering the same fact
//!    at runtime.
//!
//! Detection runs E15's protocol ([`lintstudy::run_protocol`]), so the
//! unmutated corpus is the false-positive probe: every clean script must
//! lint silent under all thirteen warnings *and* execute successfully. The
//! probe's analyses of the clean scripts also feed the fact density.
//! Everything derives from one seed.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use rcr_minilang::absint;
use rcr_minilang::diagnostics::Code;
use rcr_serve::{
    BackoffPolicy, JobError, JobSpec, Outcome, Rejected, Service, ServiceConfig, TenantQuota,
};

use crate::lintstudy::{self, ClassOutcome, Defect, LintStudy};
use crate::{Error, Result};

/// The five injected defect classes, one per abstract-interpretation lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectClass {
    /// A denominator that is provably zero — not a literal `0`, but a
    /// value the interval lattice must track through dataflow.
    ZeroDivision,
    /// An index provably outside the array's length interval.
    OutOfBounds,
    /// An operator applied to operands whose type sets admit no valid
    /// combination (string arithmetic).
    TypeConfusion,
    /// A numeric builtin applied to a provably out-of-domain argument
    /// (`sqrt` of a negative interval).
    NumericDomain,
    /// A loop whose condition the fixpoint proves always true while the
    /// body never breaks: under the fuel model it can only die.
    NonTermination,
}

impl DefectClass {
    /// All classes, in Table 10 row order.
    pub const ALL: [DefectClass; 5] = [
        DefectClass::ZeroDivision,
        DefectClass::OutOfBounds,
        DefectClass::TypeConfusion,
        DefectClass::NumericDomain,
        DefectClass::NonTermination,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            DefectClass::ZeroDivision => "provably-zero divisor",
            DefectClass::OutOfBounds => "provable out-of-bounds",
            DefectClass::TypeConfusion => "type confusion",
            DefectClass::NumericDomain => "numeric domain",
            DefectClass::NonTermination => "non-terminating loop",
        }
    }

    /// The warning code that counts as detecting this class.
    pub fn expected(self) -> Code {
        match self {
            DefectClass::ZeroDivision => Code::DivisionByZero,
            DefectClass::OutOfBounds => Code::ProvableOutOfBounds,
            DefectClass::TypeConfusion => Code::TypeConfusion,
            DefectClass::NumericDomain => Code::NumericDomain,
            DefectClass::NonTermination => Code::NonTerminatingLoop,
        }
    }
}

impl Defect for DefectClass {
    fn name(self) -> &'static str {
        DefectClass::name(self)
    }
    fn expected(self) -> Code {
        DefectClass::expected(self)
    }
}

/// Density of facts the fixpoint proves about the *clean* corpus — the
/// analyses downstream consumers (cost report, peephole fuser, static
/// admission) actually read.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FactDensity {
    /// Clean scripts analyzed.
    pub n_scripts: usize,
    /// User functions across the corpus.
    pub n_functions: usize,
    /// Functions whose static cost interval has a finite upper bound.
    pub finite_cost_functions: usize,
    /// `finite_cost_functions / n_functions`.
    pub finite_cost_fraction: f64,
    /// Functions proven to return `FloatArray` (the peephole fact).
    pub float_array_proofs: usize,
    /// Top-level variables at the end of main, across the corpus.
    pub main_vars: usize,
    /// Main variables whose inferred type set is narrower than ⊤.
    pub typed_main_vars: usize,
    /// `typed_main_vars / main_vars`.
    pub typed_main_var_fraction: f64,
    /// Scripts whose whole-program fuel cost has a finite upper bound.
    pub finite_program_cost: usize,
}

/// One arm of the static-admission comparison.
#[derive(Debug, Clone, Serialize)]
pub struct AdmissionArm {
    /// `"static-admission"` or `"runtime-only"`.
    pub arm: String,
    /// Jobs offered.
    pub submitted: u64,
    /// Jobs admitted into the run queue.
    pub admitted: u64,
    /// Admitted jobs that completed.
    pub completed: u64,
    /// Admitted jobs that failed with a typed error.
    pub failed: u64,
    /// Jobs shed at submit as [`Rejected::StaticallyInfeasible`].
    pub shed_static: u64,
    /// Admitted jobs that died to [`JobError::FuelQuotaExceeded`].
    pub fuel_quota_failures: u64,
    /// Distinct programs compiled (program-cache misses) — the compile
    /// work static admission avoids.
    pub compile_misses: u64,
    /// `completed / admitted`.
    pub goodput_fraction: f64,
    /// Wall-clock of the arm, milliseconds (not part of the reproducible
    /// claim; the counters are).
    pub wall_ms: f64,
}

/// Full E20 result: false-positive probe, per-class detection, proved-fact
/// density, and the two admission arms.
#[derive(Debug, Clone, Serialize)]
pub struct AbsintStudy {
    /// Clean scripts linted and executed.
    pub n_clean: usize,
    /// Clean scripts with any finding (must be 0).
    pub clean_with_findings: usize,
    /// `clean_with_findings / n_clean`.
    pub false_positive_rate: f64,
    /// Per-class detection rows.
    pub classes: Vec<ClassOutcome>,
    /// Facts proved about the clean corpus.
    pub density: FactDensity,
    /// Static-admission on vs off.
    pub admission: Vec<AdmissionArm>,
}

/// Generates corpus script `index` from `seed`, optionally with one
/// injected defect. `None` yields the clean form of the same script.
pub fn generate_script(seed: u64, index: usize, defect: Option<DefectClass>) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x51F0_AB51 + index as u64));
    let body = match index % 3 {
        0 => template_clamp(&mut rng, index),
        1 => template_fixpoint(&mut rng, index),
        _ => template_pipeline(&mut rng, index),
    };
    match defect {
        None => body,
        Some(class) => inject(&mut rng, &body, class),
    }
}

/// Splices one defect before the script's final expression. The snippets
/// are what the lattice exists to catch: every proof obligation flows
/// through at least one variable, so a syntactic scan cannot see it.
fn inject(rng: &mut StdRng, clean: &str, class: DefectClass) -> String {
    let c = rng.gen_range(2..9);
    let len = rng.gen_range(3..12);
    let off = rng.gen_range(1..6);
    let snippet = match class {
        DefectClass::ZeroDivision => {
            format!("let gap = {c} - {c};\nlet ratio = {len} / gap;\nratio;\n")
        }
        DefectClass::OutOfBounds => {
            format!(
                "let probe = zeros({len});\nlet peek = probe[{}];\npeek;\n",
                len + off
            )
        }
        DefectClass::TypeConfusion => {
            format!("let tag = \"u{c}\";\nlet scaled = tag * {c};\nscaled;\n")
        }
        DefectClass::NumericDomain => {
            format!(
                "let shifted = {c} - {};\nlet root = sqrt(shifted);\nroot;\n",
                c + off
            )
        }
        DefectClass::NonTermination => {
            format!(
                "let spin = 0;\nlet ticks = 0;\nwhile spin < {len} {{\n  ticks = ticks + 1;\n}}\nticks;\n"
            )
        }
    };
    // The final line of every template is its result expression; the
    // defect lands just above it so the rest of the script still binds.
    let cut = clean.trim_end().rfind('\n').map_or(0, |i| i + 1);
    format!("{}{}{}", &clean[..cut], snippet, &clean[cut..])
}

/// A guarded accumulator: a clamp helper folded over a counted loop, then
/// a mean over a literal (nonzero) count.
fn template_clamp(rng: &mut StdRng, index: usize) -> String {
    let n = rng.gen_range(8..48);
    let m = rng.gen_range(2..7);
    let lo = rng.gen_range(1..5);
    let hi = lo + rng.gen_range(10..90);
    format!(
        "fn clamp{index}(x) {{\n  if x < {lo} {{ return {lo}; }}\n  if x > {hi} {{ return {hi}; }}\n  return x;\n}}\nlet total = 0;\nfor k in range(0, {n}) {{\n  total = total + clamp{index}(k * {m});\n}}\nlet mean = total / {n};\nmean\n"
    )
}

/// A fixed-point style iteration: a step helper applied in a counted
/// while loop whose induction variable provably advances.
fn template_fixpoint(rng: &mut StdRng, index: usize) -> String {
    let m = rng.gen_range(2..6);
    let c = rng.gen_range(1..20);
    let v0 = rng.gen_range(1..10);
    let iters = rng.gen_range(4..30);
    format!(
        "fn step{index}(x) {{\n  return x * {m} + {c};\n}}\nlet v = {v0};\nlet n = 0;\nwhile n < {iters} {{\n  v = step{index}(v);\n  n = n + 1;\n}}\nv + n\n"
    )
}

/// An array pipeline: a constructor the fixpoint proves returns
/// `FloatArray`, a fill loop, and a reduction normalized by a literal.
fn template_pipeline(rng: &mut StdRng, index: usize) -> String {
    let len = rng.gen_range(4..40);
    let m = rng.gen_range(2..9);
    format!(
        "fn make{index}(n) {{\n  return zeros(n);\n}}\nlet buf = make{index}({len});\nfor k in range(0, {len}) {{\n  buf[k] = k * {m};\n}}\nlet s = vsum(buf);\nlet avg = s / {len};\navg\n"
    )
}

impl FactDensity {
    /// Adds one clean script's analysis to the counts.
    fn absorb(&mut self, analysis: &absint::Analysis) {
        self.n_scripts += 1;
        self.n_functions += analysis.functions.len();
        self.finite_cost_functions += analysis
            .functions
            .iter()
            .filter(|f| f.cost.hi.is_some())
            .count();
        self.float_array_proofs += analysis.facts.n_proven();
        self.main_vars += analysis.main_vars.len();
        self.typed_main_vars += analysis
            .main_vars
            .iter()
            .filter(|(_, v)| v.types != absint::TypeSet::ANY)
            .count();
        if analysis.cost.program.hi.is_some() {
            self.finite_program_cost += 1;
        }
        self.finite_cost_fraction =
            self.finite_cost_functions as f64 / (self.n_functions as f64).max(1.0);
        self.typed_main_var_fraction =
            self.typed_main_vars as f64 / (self.main_vars as f64).max(1.0);
    }
}

/// Tenants in the admission arms.
const ARM_TENANTS: usize = 4;

/// Per-job fuel quota of the admission arms: generous for the feasible
/// scripts, provably too small for the infeasible ones.
const ARM_FUEL: u64 = 100_000;

/// Feasible workload: static fuel lower bounds and actual consumption are
/// both well under [`ARM_FUEL`].
const FEASIBLE: [&str; 2] = [
    "let s = 0; for i in range(0, 3000) { s = s + i * 2; } s",
    "let a = zeros(64); for i in range(0, 64) { a[i] = i * 0.5; } vsum(a)",
];

/// Infeasible workload: a spin whose fuel lower bound is ~8× the quota,
/// and a provably divergent loop (lower bound `u64::MAX`).
const INFEASIBLE: [&str; 2] = [
    "let s = 0; for i in range(0, 400000) { s = s + i; } s",
    "while true { let x = 1; x; }",
];

/// Runs one admission arm: the mixed workload against a service with
/// static admission on or off, with the outcome space verified.
fn run_admission_arm(
    static_admission: bool,
    n_feasible: usize,
    n_infeasible: usize,
) -> Result<AdmissionArm> {
    let arm = if static_admission {
        "static-admission"
    } else {
        "runtime-only"
    };
    let service = Service::new(ServiceConfig {
        tenants: vec![
            TenantQuota {
                fuel: ARM_FUEL,
                ..TenantQuota::default()
            };
            ARM_TENANTS
        ],
        executors: 2,
        queue_capacity: n_feasible + n_infeasible + 8,
        admission_rate: 1e9,
        admission_burst: 1e9,
        default_deadline: std::time::Duration::from_secs(30),
        breaker_threshold: u32::MAX,
        breaker_cooldown: std::time::Duration::from_millis(50),
        backoff: BackoffPolicy {
            max_attempts: 1,
            base: 0.0005,
            cap: 0.004,
            seed: 0xE20,
        },
        faults: rcr_cluster::faults::FaultPlan::none(0xE20),
        fuel_slice: 10_000,
        static_admission,
        program_cache_capacity: rcr_serve::PROGRAM_CACHE_CAPACITY,
    });

    // Interleave feasible and infeasible submissions round-robin across
    // tenants, so shedding decisions happen under a mixed stream.
    let started = Instant::now();
    let mut handles = Vec::new();
    let mut shed_static = 0u64;
    let mut submitted = 0u64;
    let mut infeasible_left = n_infeasible;
    let mut feasible_left = n_feasible;
    let mut slot = 0usize;
    while feasible_left + infeasible_left > 0 {
        let take_infeasible = infeasible_left > 0 && (slot % 3 == 2 || feasible_left == 0);
        let source = if take_infeasible {
            infeasible_left -= 1;
            INFEASIBLE[infeasible_left % INFEASIBLE.len()]
        } else {
            feasible_left -= 1;
            FEASIBLE[feasible_left % FEASIBLE.len()]
        };
        submitted += 1;
        match service.submit(JobSpec::new(slot % ARM_TENANTS, source)) {
            Ok(h) => handles.push((take_infeasible, h)),
            Err(Rejected::StaticallyInfeasible { required, budget }) => {
                if !take_infeasible {
                    return Err(Error::VerificationFailed(format!(
                        "E20 {arm}: a feasible job was shed as infeasible \
                         (required {required}, budget {budget})"
                    )));
                }
                if required <= budget {
                    return Err(Error::VerificationFailed(format!(
                        "E20 {arm}: shed with required {required} <= budget {budget}"
                    )));
                }
                shed_static += 1;
            }
            Err(other) => {
                return Err(Error::VerificationFailed(format!(
                    "E20 {arm}: unexpected rejection: {other}"
                )))
            }
        }
        slot += 1;
    }

    let mut fuel_quota_failures = 0u64;
    for (was_infeasible, handle) in &handles {
        match handle.wait_timeout(std::time::Duration::from_secs(30)) {
            Some(Outcome::Completed { .. }) => {
                if *was_infeasible {
                    return Err(Error::VerificationFailed(format!(
                        "E20 {arm}: an infeasible job completed — the workload is miscalibrated"
                    )));
                }
            }
            Some(Outcome::Failed(JobError::FuelQuotaExceeded { .. })) => fuel_quota_failures += 1,
            Some(Outcome::Failed(e)) => {
                return Err(Error::VerificationFailed(format!(
                    "E20 {arm}: unexpected failure: {e}"
                )))
            }
            None => {
                return Err(Error::VerificationFailed(format!(
                    "E20 {arm}: a job hung past the liveness bound"
                )))
            }
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    service.shutdown();

    let m = service.metrics();
    if m.completed + m.failed + m.cancelled != m.admitted {
        return Err(Error::VerificationFailed(format!(
            "E20 {arm}: outcome space not closed: {m:?}"
        )));
    }
    if m.rejected_statically_infeasible != shed_static {
        return Err(Error::VerificationFailed(format!(
            "E20 {arm}: shed count {shed_static} disagrees with metrics: {m:?}"
        )));
    }
    let cache = service.cache_stats();
    Ok(AdmissionArm {
        arm: arm.to_owned(),
        submitted,
        admitted: m.admitted,
        completed: m.completed,
        failed: m.failed + m.cancelled,
        shed_static,
        fuel_quota_failures,
        compile_misses: cache.misses,
        goodput_fraction: m.completed as f64 / (m.admitted as f64).max(1.0),
        wall_ms,
    })
}

/// Runs the full study: E15's [`lintstudy::run_protocol`] over this
/// module's corpus and defect classes, with the proved-fact density read
/// from the clean scripts' analyses, then both admission arms (sized from
/// `n_per_class`). The cross-arm claims — static admission sheds every
/// infeasible job, compiles strictly fewer programs, and holds goodput at
/// least as high — are verified here, not just reported.
///
/// # Errors
/// What [`lintstudy::run_protocol`] returns;
/// [`Error::VerificationFailed`] when an admission arm breaks its contract.
pub fn run_study(seed: u64, n_per_class: usize) -> Result<AbsintStudy> {
    let mut density = FactDensity::default();
    let LintStudy {
        n_clean,
        clean_with_findings,
        false_positive_rate,
        classes,
    } = lintstudy::run_protocol(
        &DefectClass::ALL,
        n_per_class,
        |i, defect| generate_script(seed, i, defect),
        |analysis| density.absorb(analysis),
    )?;

    let n_infeasible = n_per_class.max(4);
    let n_feasible = 3 * n_infeasible;
    let on = run_admission_arm(true, n_feasible, n_infeasible)?;
    let off = run_admission_arm(false, n_feasible, n_infeasible)?;
    if on.shed_static != n_infeasible as u64 {
        return Err(Error::VerificationFailed(format!(
            "E20: static admission shed {} of {n_infeasible} infeasible jobs",
            on.shed_static
        )));
    }
    if off.shed_static != 0 || off.fuel_quota_failures != n_infeasible as u64 {
        return Err(Error::VerificationFailed(format!(
            "E20: runtime-only arm should discover every infeasible job by \
             fuel exhaustion: {off:?}"
        )));
    }
    if on.compile_misses >= off.compile_misses {
        return Err(Error::VerificationFailed(format!(
            "E20: static admission must compile strictly fewer programs \
             ({} vs {})",
            on.compile_misses, off.compile_misses
        )));
    }
    if on.goodput_fraction < off.goodput_fraction {
        return Err(Error::VerificationFailed(format!(
            "E20: static admission lowered goodput ({} vs {})",
            on.goodput_fraction, off.goodput_fraction
        )));
    }

    Ok(AbsintStudy {
        n_clean,
        clean_with_findings,
        false_positive_rate,
        classes,
        density,
        admission: vec![on, off],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MASTER_SEED;

    #[test]
    fn clean_corpus_is_silent_and_runs() {
        let study = run_study(MASTER_SEED, 9).unwrap();
        assert_eq!(study.clean_with_findings, 0, "absint false positive");
        assert_eq!(study.false_positive_rate, 0.0);
    }

    #[test]
    fn every_class_clears_the_detection_floor() {
        let study = run_study(MASTER_SEED, 9).unwrap();
        for c in &study.classes {
            assert!(
                c.detection_rate >= 0.8,
                "{} [{}]: rate {}",
                c.class,
                c.expected_code,
                c.detection_rate
            );
        }
    }

    #[test]
    fn density_reflects_the_templates() {
        let study = run_study(MASTER_SEED, 9).unwrap();
        let d = &study.density;
        // Every corpus function is loop-bounded or straight-line: the
        // fixpoint must give each a finite cost.
        assert_eq!(d.finite_cost_functions, d.n_functions);
        assert!(d.n_functions >= 9, "one helper per script");
        // The pipeline template's constructor is proven farray.
        assert!(d.float_array_proofs >= 1);
        assert!(d.typed_main_var_fraction > 0.5, "{d:?}");
        // The clamp and pipeline templates are for-range bounded, so their
        // whole-program cost is finite; the fixpoint (correctly) refuses
        // to bound the while loop of the fixpoint template.
        assert_eq!(d.finite_program_cost, d.n_scripts * 2 / 3);
    }

    #[test]
    fn admission_arms_tell_the_shed_before_compile_story() {
        let study = run_study(MASTER_SEED, 6).unwrap();
        assert_eq!(study.admission.len(), 2);
        let on = &study.admission[0];
        let off = &study.admission[1];
        assert_eq!(on.arm, "static-admission");
        assert_eq!(off.arm, "runtime-only");
        // run_study verified the contract; spot-check the headline shape.
        assert_eq!(on.goodput_fraction, 1.0, "{on:?}");
        assert!(off.goodput_fraction < 1.0, "{off:?}");
        assert!(on.compile_misses < off.compile_misses);
        assert_eq!(on.submitted, off.submitted);
    }

    #[test]
    fn detection_is_deterministic() {
        let a = run_study(MASTER_SEED, 5).unwrap();
        let b = run_study(MASTER_SEED, 5).unwrap();
        assert_eq!(
            serde_json::to_string(&a.classes).unwrap(),
            serde_json::to_string(&b.classes).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.density).unwrap(),
            serde_json::to_string(&b.density).unwrap()
        );
    }

    #[test]
    fn mutants_differ_from_their_clean_form() {
        for class in DefectClass::ALL {
            for i in 0..6 {
                let clean = generate_script(MASTER_SEED, i, None);
                let mutant = generate_script(MASTER_SEED, i, Some(class));
                assert_ne!(clean, mutant, "{class:?} mutant {i} identical to clean");
            }
        }
    }
}
