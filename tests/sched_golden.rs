//! Golden outcome digests for every scheduling policy.
//!
//! The scheduler's data structures are an implementation detail: any
//! change to them must leave every scheduling decision, and so every
//! [`Outcome::digest`], bit-identical. This test pins the digests of all
//! four policies under three fault setups on traces wide enough to build
//! a real waiting queue:
//!
//! * fault-free;
//! * the E23 fault model (Resubmit with exponential backoff, so requeued
//!   jobs land in the middle of the queue);
//! * checkpointing with a positive overhead, so running attempts overrun
//!   their estimates and the EASY shadow computation meets running jobs
//!   whose expected finish already lies in the past.
//!
//! The values were recorded with the slice-based scheduler that the
//! block-summarized wait queue and finish-ordered running index replaced.
//! One cell differs from that scheduler: under checkpointing, its
//! conservative backfill counted the nodes of overrunning jobs as free
//! *now* and over-committed the machine (a debug-build panic, a wrapped
//! node count in release). Its value comes from the slice-based scheduler
//! with only that fix applied; the fix leaves every pass that did not
//! over-commit unchanged, as the other eleven cells show.

use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::job::Job;
use rcr_cluster::sched::Policy;
use rcr_cluster::sim::{Outcome, Simulator};
use rcr_cluster::workload::{generate, WorkloadSpec};
use rcr_core::simstudy::fault_model;

const NODES: usize = 64;

/// A 64-node trace offered slightly more work than the machine can do,
/// so the waiting queue grows to hundreds of jobs.
fn trace(seed: u64) -> Vec<Job> {
    generate(
        &WorkloadSpec {
            n_jobs: 1_200,
            cluster_nodes: NODES,
            offered_load: 1.05,
            ..Default::default()
        },
        seed,
    )
}

/// Checkpointing every 10 minutes at 90 s per checkpoint, with failures
/// frequent enough to kill and restart many attempts.
fn checkpointing(seed: u64) -> FaultSpec {
    FaultSpec {
        node_mtbf: 2.0e5,
        repair_time: 1800.0,
        job_failure_prob: 0.03,
        recovery: RecoveryPolicy::Checkpoint {
            interval: 600.0,
            overhead: 90.0,
            max_retries: 5,
        },
        seed,
    }
}

fn run(policy: Policy, faults: Option<FaultSpec>, seed: u64) -> Outcome {
    let sim = Simulator::new(NODES, policy);
    let sim = match faults {
        Some(spec) => sim.with_faults(spec).expect("valid fault spec"),
        None => sim,
    };
    sim.run(trace(seed)).expect("valid trace")
}

/// `(setup, policy, digest)`, recorded with the slice-based scheduler.
const GOLDEN: [(&str, Policy, u64); 12] = [
    ("none", Policy::Fcfs, 0x36302d40a9306b3f),
    ("none", Policy::Sjf, 0x30e95664b4771e11),
    ("none", Policy::EasyBackfill, 0x829832c9efa14cf3),
    ("none", Policy::ConservativeBackfill, 0x3e0fa254ef4445dd),
    ("e23", Policy::Fcfs, 0xe8b094b8fde9bedf),
    ("e23", Policy::Sjf, 0xde1fb473349f13f5),
    ("e23", Policy::EasyBackfill, 0xe6c58838c9cc8f3f),
    ("e23", Policy::ConservativeBackfill, 0x3cfd036ebd5d5c18),
    ("checkpoint", Policy::Fcfs, 0xaf809e7e651b41eb),
    ("checkpoint", Policy::Sjf, 0xa10f0463a17bd603),
    ("checkpoint", Policy::EasyBackfill, 0x9ceca37ac3501611),
    (
        "checkpoint",
        Policy::ConservativeBackfill,
        0xac519ce195c4d405,
    ),
];

#[test]
fn every_policy_reproduces_its_golden_digest() {
    let seed = 0x5EED;
    let mut actual = Vec::new();
    for (setup, policy, _) in GOLDEN {
        let faults = match setup {
            "none" => None,
            "e23" => Some(fault_model(seed)),
            _ => Some(checkpointing(seed)),
        };
        let out = run(policy, faults, seed);
        actual.push((setup, policy, out.digest()));
    }
    let table: String = actual
        .iter()
        .map(|(s, p, d)| format!("    ({s:?}, Policy::{p:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "actual digests:\n{table}");
}
