//! # rcr-cluster
//!
//! A discrete-event simulator of a space-shared HPC cluster — the
//! documented substitution for the accounting logs of the university
//! cluster the survey's respondents use (DESIGN.md §3).
//!
//! The model: `N` identical nodes; rigid jobs that need `nodes` nodes for
//! `runtime` seconds; a central queue managed by a [`sched::Policy`]
//! (FCFS, shortest-job-first, EASY backfill, or conservative backfill); and
//! metrics (wait, bounded slowdown, utilization, fairness) computed per job.
//!
//! Experiments E9 and E10 run synthetic workloads (Poisson arrivals,
//! log-normal runtimes, power-of-two node requests, user-style runtime
//! over-estimates) through each policy and reproduce the canonical shapes:
//! backfill slashes mean wait at identical utilization, and every policy's
//! wait curve turns a knee as offered load approaches 1.
//!
//! Experiment E14 layers [`faults`] on top: seeded node failures and
//! software faults, with [`faults::RecoveryPolicy`] deciding whether killed
//! jobs resubmit from scratch, restart from a checkpoint, or are abandoned;
//! [`metrics::resilience_summary`] splits the cluster's work into goodput
//! and badput.
//!
//! Experiment E23 scales the core to ROADMAP item 4's 10k+ nodes and
//! millions of jobs: [`event`] stores pending events in a binary heap,
//! [`engine`] exposes the event loop as a resumable engine, and
//! [`windowed`] runs sharded sub-clusters in conservative time windows
//! on the `rcr-kernels` work-stealing pool — with outcomes bit-for-bit
//! identical to the serial run (test-enforced; see `Outcome::digest`). [`swf::stream_jobs`] replays
//! SWF traces without materializing them.
//!
//! ```
//! use rcr_cluster::{sim::Simulator, sched::Policy, workload};
//!
//! let jobs = workload::generate(&workload::WorkloadSpec::default(), 0xC0FFEE);
//! let outcome = Simulator::new(64, Policy::EasyBackfill).run(jobs).unwrap();
//! let summary = outcome.try_summary().expect("fault-free runs complete every job");
//! assert!(summary.utilization > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod faults;
pub mod job;
pub mod metrics;
pub mod sched;
pub mod sim;
pub mod swf;
pub mod windowed;
pub mod workload;

use std::fmt;

/// Errors from simulator configuration or inconsistent inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The cluster must have at least one node.
    NoNodes,
    /// A job requests more nodes than the cluster has.
    JobTooWide {
        /// The job's id.
        job: u64,
        /// Nodes requested.
        requested: usize,
        /// Nodes in the cluster.
        available: usize,
    },
    /// A job has a non-positive runtime or estimate, or a negative submit
    /// time.
    InvalidJob(u64),
    /// Workload specification parameter out of range.
    InvalidSpec(String),
    /// Fault-injection configuration parameter out of range (zero MTBF,
    /// negative repair time, retry limit of 0, ...).
    InvalidFaultSpec(String),
    /// Windowed-runner configuration parameter out of range (zero shards,
    /// non-positive window width, ...).
    InvalidWindowedSpec(String),
    /// A streamed trace handed to the windowed runner was not sorted by
    /// submit time, or a job was injected into an engine at a time the
    /// engine had already advanced past; either would make lazy
    /// injection unsound.
    UnsortedTrace {
        /// The out-of-order job's id.
        job: u64,
        /// Its submit time.
        submit: f64,
        /// The largest submit time seen before it, or the engine's
        /// advanced horizon.
        prev: f64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoNodes => write!(f, "cluster needs at least one node"),
            Error::JobTooWide {
                job,
                requested,
                available,
            } => write!(
                f,
                "job {job} requests {requested} nodes but the cluster has {available}"
            ),
            Error::InvalidJob(id) => write!(f, "job {id} has invalid times"),
            Error::InvalidSpec(msg) => write!(f, "invalid workload spec: {msg}"),
            Error::InvalidFaultSpec(msg) => write!(f, "invalid fault spec: {msg}"),
            Error::InvalidWindowedSpec(msg) => write!(f, "invalid windowed spec: {msg}"),
            Error::UnsortedTrace { job, submit, prev } => write!(
                f,
                "trace not sorted by submit time: job {job} at {submit} s after {prev} s"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(Error::NoNodes.to_string().contains("node"));
        let e = Error::JobTooWide {
            job: 3,
            requested: 128,
            available: 64,
        };
        assert!(e.to_string().contains("128"));
        assert!(Error::InvalidJob(9).to_string().contains('9'));
        assert!(Error::InvalidSpec("load".into())
            .to_string()
            .contains("load"));
        let e = Error::InvalidFaultSpec("node_mtbf must be positive".into());
        assert!(e.to_string().contains("fault spec"));
        assert!(e.to_string().contains("mtbf"));
        let e = Error::InvalidWindowedSpec("shards must be at least 1".into());
        assert!(e.to_string().contains("windowed"));
        let e = Error::UnsortedTrace {
            job: 12,
            submit: 5.0,
            prev: 9.0,
        };
        assert!(e.to_string().contains("not sorted"));
        assert!(e.to_string().contains("12"));
    }
}
