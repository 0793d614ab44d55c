//! # rcr-core
//!
//! The analysis layer of the *Revisiting Computation for Research*
//! reproduction — the paper's primary contribution, sitting on top of every
//! substrate crate:
//!
//! * [`compare`] — the cohort-comparison engine: per-item shifts between the
//!   2011 and 2024 waves with confidence intervals, two-proportion z-tests,
//!   Benjamini–Hochberg correction, and Cohen's h effect sizes;
//! * [`trend`] — yearly adoption trajectories with Wilson bands and OLS
//!   slopes;
//! * [`perfgap`] — the performance study: the same kernels run as
//!   ResearchScript (tree-walk → bytecode → fused → JIT → vectorized) and
//!   as native Rust (naive → optimized → parallel), measured once and
//!   read by E5, E11, E16 and E22, plus thread-scaling with Amdahl fits;
//! * [`lintstudy`] — the defect-injection study: seeded mutants of a clean
//!   script corpus scored against the `rsc --check` static analyzer, by
//!   the one detection protocol ([`lintstudy::run_protocol`]) E15 and E20
//!   share;
//! * [`schedstudy`] — the scheduler ablation: spawn-per-call runtimes vs
//!   the persistent work-stealing pool on regular, irregular, and
//!   fine-grained workloads;
//! * [`memstudy`] — the memory-hierarchy study: six kernels swept across
//!   L1/L2/LLC/DRAM working sets under serial, SIMD, parallel, and
//!   parallel+SIMD tiers, every cell verified before timing;
//! * [`servestudy`] — the overload study: the `rcr-serve` execution
//!   service driven open-loop past saturation under a fault ablation, with
//!   its robustness contract verified before any number is reported;
//! * [`absintstudy`] — the abstract-interpretation study: E15's protocol
//!   run on interval/shape/cost defects, proved-fact density read from the
//!   protocol's analyses of the clean corpus, and the static-admission arm
//!   of the serving story;
//! * [`colstudy`] — the columnar analytics scaling study: the survey
//!   query suite on 10⁴–10⁷-respondent populations under the row engine
//!   and the serial/parallel columnar tiers, every cell verified
//!   against the row reference before timing;
//! * [`simstudy`] — the cluster-simulator scaling study: serial and
//!   windowed-parallel DES arms replaying SWF traces on federations up
//!   to 10k+ nodes and a million jobs, the parallel arm digest-verified
//!   against the serial baseline before timing;
//! * [`harness`] — the one verify-then-time protocol every timed study
//!   above goes through: a checked warm-up, then the median of the timed
//!   runs;
//! * [`experiments`] — the drivers that tie each survey question and
//!   cluster workload to the master seed (E1–E4, E7–E10, E12–E14).
//!
//! The experiment table itself, mapping ids E1–E23 to the code that
//! regenerates each table and figure, is `rcr_bench::STUDIES` (see
//! `DESIGN.md` §4).
//!
//! ```
//! use rcr_core::experiments::Experiments;
//!
//! let ex = Experiments::new(rcr_core::MASTER_SEED);
//! let shifts = ex.e2_language_shift().unwrap();
//! let python = shifts.iter().find(|s| s.item == "python").unwrap();
//! assert!(python.p_after > python.p_before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absintstudy;
pub mod colstudy;
pub mod compare;
pub mod experiments;
pub mod harness;
pub mod lintstudy;
pub mod memstudy;
pub mod perfgap;
pub mod schedstudy;
pub mod servestudy;
pub mod simstudy;
pub mod trend;

/// The canonical questionnaire (re-exported from `rcr-survey` so analysis
/// code has one import path for schema constants).
pub use rcr_survey::canonical as questionnaire;

/// The master seed every experiment derives from.
pub const MASTER_SEED: u64 = rcr_synth::MASTER_SEED;

use std::fmt;

/// Errors from the analysis layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A survey-layer error (unknown question, kind mismatch, ...).
    Survey(String),
    /// A statistics-layer error (degenerate table, bad input, ...).
    Stats(String),
    /// A script failed to parse/compile/run in the performance study.
    Script(String),
    /// A cluster-simulation error.
    Cluster(String),
    /// Cross-tier disagreement in the performance study (the guard that
    /// keeps us from benchmarking a wrong answer).
    VerificationFailed(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Survey(m) => write!(f, "survey error: {m}"),
            Error::Stats(m) => write!(f, "stats error: {m}"),
            Error::Script(m) => write!(f, "script error: {m}"),
            Error::Cluster(m) => write!(f, "cluster error: {m}"),
            Error::VerificationFailed(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<rcr_survey::Error> for Error {
    fn from(e: rcr_survey::Error) -> Self {
        Error::Survey(e.to_string())
    }
}

impl From<rcr_stats::Error> for Error {
    fn from(e: rcr_stats::Error) -> Self {
        Error::Stats(e.to_string())
    }
}

impl From<rcr_minilang::Error> for Error {
    fn from(e: rcr_minilang::Error) -> Self {
        Error::Script(e.to_string())
    }
}

impl From<rcr_cluster::Error> for Error {
    fn from(e: rcr_cluster::Error) -> Self {
        Error::Cluster(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_conversions_preserve_messages() {
        let e: Error = rcr_stats::Error::EmptyInput.into();
        assert!(e.to_string().contains("empty"));
        let e: Error = rcr_survey::Error::UnknownQuestion("q9".into()).into();
        assert!(e.to_string().contains("q9"));
        let e: Error = rcr_minilang::Error::runtime("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: Error = rcr_cluster::Error::NoNodes.into();
        assert!(e.to_string().contains("node"));
        let e = Error::VerificationFailed("tiers disagree".into());
        assert!(e.to_string().contains("disagree"));
    }
}
