//! Experiment E23 (Figure 12): the cluster-simulator scaling study.
//!
//! ROADMAP item 4 asks for scheduling and resilience claims measured at
//! realistic scale — 10k+ nodes, millions of jobs — instead of the
//! 64-node × 2000-job toys of E9/E10/E14. This study measures the DES
//! core rebuilt for that scale: simulated events per second across
//! federation sizes under two arms,
//!
//! * `serial-heap` — one thread, the binary-heap event queue (the
//!   reference and the speedup baseline);
//! * `windowed-parallel` — the same queue under the conservative
//!   time-windowed runner, shards advanced in parallel on the
//!   `rcr-kernels` work-stealing pool.
//!
//! Both arms run the **same** windowed schedule (same shard count, same
//! window width, same per-`(shard, window)` fault streams), so the two
//! merged outcomes must be bit-for-bit identical; each arm's
//! [`rcr_cluster::windowed::WindowedOutcome::digest`] is checked against
//! the serial-heap reference **before** its timing is trusted, and a
//! mismatch aborts with [`Error::VerificationFailed`].
//!
//! The scenario goes through the Standard Workload Format end to end:
//! the synthetic trace is exported with [`rcr_cluster::swf::to_swf`],
//! the canonical job list is what [`rcr_cluster::swf::from_swf`] reads
//! back (so SWF's centisecond timestamp precision is part of the
//! scenario, not a verification nuisance), and each arm's verification
//! run replays the text through the streaming parser
//! [`rcr_cluster::swf::stream_jobs`] without materializing it — the
//! timed repetitions ([`crate::harness`]) then replay a fresh copy of the
//! materialized list, made outside the clock, so parse cost never
//! pollutes the events/sec numbers. The harness's warm-up materialized
//! replay must reproduce the streamed digest before any replay is timed,
//! pinning parser and simulator together.

use serde::Serialize;

use rcr_cluster::faults::{FaultSpec, RecoveryPolicy};
use rcr_cluster::sched::Policy;
use rcr_cluster::swf::{from_swf, stream_jobs, to_swf};
use rcr_cluster::windowed::{WindowedSim, WindowedSpec};
use rcr_cluster::workload::{generate_checked, WorkloadSpec};

use crate::harness::{measure_with, verify};
use crate::perfgap::GapConfig;
use crate::{Error, Result};

/// Arm labels in sweep order; `serial-heap` must come first (it is the
/// speedup baseline and the digest reference).
pub const ARMS: [&str; 2] = ["serial-heap", "windowed-parallel"];

/// Windows per trace span: the window width is the full submit span
/// divided by this, so every size runs a comparable number of barriers.
const WINDOWS_PER_SPAN: f64 = 64.0;

/// One (federation size, arm) cell of the E23 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SimPoint {
    /// Total nodes across the federation (`shards × nodes_per_shard`).
    pub nodes: usize,
    /// Total jobs replayed.
    pub jobs: usize,
    /// Independent sub-clusters.
    pub shards: usize,
    /// Arm name (see [`ARMS`]).
    pub arm: String,
    /// Worker threads this arm used.
    pub threads: usize,
    /// Windows executed (identical across arms by construction).
    pub windows: u64,
    /// Events processed (identical across arms by construction).
    pub events: u64,
    /// Median seconds per full replay.
    pub median_s: f64,
    /// Simulated events per second: `events / median_s`.
    pub events_per_s: f64,
    /// Speedup of this arm over `serial-heap` at the same size.
    pub speedup_vs_heap: f64,
    /// Digest of the merged outcome; equal across arms by construction.
    pub checksum: u64,
    /// Whether this arm's digest matched the serial-heap reference
    /// (always `true` in returned rows; a mismatch aborts instead).
    pub verified: bool,
}

/// Federation sizes swept, smallest first: `(shards, nodes_per_shard,
/// jobs_per_shard)`. The full sweep tops out at 16 × 640 = 10 240 nodes
/// replaying 16 × 62 500 = 1 000 000 jobs — the ROADMAP item 4 scale.
pub fn sizes(quick: bool) -> Vec<(usize, usize, usize)> {
    if quick {
        vec![(2, 16, 150), (2, 32, 300)]
    } else {
        vec![(8, 128, 12_500), (16, 640, 62_500)]
    }
}

/// Repetitions per (size, arm) cell; the million-job size runs twice
/// (each replay already takes long enough to swamp timer noise).
fn reps_for(total_jobs: usize, quick: bool) -> usize {
    if quick {
        2
    } else if total_jobs <= 200_000 {
        3
    } else {
        2
    }
}

/// The E23 fault model: mild but live — every arm must reproduce the
/// same failures, kills, and retries, not just the same completions.
/// Public so the repository benchmark replays the same scenario.
pub fn fault_model(seed: u64) -> FaultSpec {
    FaultSpec {
        node_mtbf: 2.0e6,
        repair_time: 1800.0,
        job_failure_prob: 0.01,
        recovery: RecoveryPolicy::Resubmit {
            max_retries: 4,
            backoff_base: 60.0,
        },
        seed,
    }
}

/// Builds one federation-wide trace: `shards` independent workload
/// streams (each calibrated to load 0.85 of one shard), interleaved by
/// remapping stream `s`'s `k`-th job to id `k·shards + s`, sorted into
/// submission order, and round-tripped through SWF text so the
/// centisecond export precision is part of the canonical scenario.
/// Returns the SWF text and the materialized canonical jobs.
fn build_trace(
    seed: u64,
    shards: usize,
    nodes_per_shard: usize,
    jobs_per_shard: usize,
) -> Result<(String, Vec<rcr_cluster::job::Job>)> {
    let mut merged = Vec::with_capacity(shards * jobs_per_shard);
    for s in 0..shards {
        let spec = WorkloadSpec {
            n_jobs: jobs_per_shard,
            cluster_nodes: nodes_per_shard,
            offered_load: 0.85,
            ..Default::default()
        };
        let stream =
            generate_checked(&spec, seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))?;
        for (k, mut job) in stream.into_iter().enumerate() {
            job.id = (k * shards + s) as u64;
            merged.push(job);
        }
    }
    merged.sort_by(|a, b| {
        a.submit
            .partial_cmp(&b.submit)
            .expect("finite submit times")
            .then(a.id.cmp(&b.id))
    });
    // Two-step canonicalization. The first round-trip snaps times to
    // SWF's centisecond precision *and* sorts by the rounded
    // (submit, id) key — rounding can tie submits that differed before
    // export, and `from_swf` orders those ties by id while the text
    // keeps pre-rounding order. Re-exporting the sorted jobs makes file
    // order equal canonical order, so a streaming replay
    // (`stream_jobs`, file order) and a materialized one (`from_swf`
    // order) see the same arrival sequence. The second export is a
    // fixed point: re-parsing changes neither values nor order.
    let jobs = from_swf(&to_swf(&merged))?;
    let text = to_swf(&jobs);
    Ok((text, jobs))
}

/// Runs the full E23 sweep: `sizes(quick) × ARMS` verified cells.
///
/// # Errors
/// [`Error::VerificationFailed`] when any arm's digest diverges from the
/// serial-heap reference, when an arm's streamed and materialized runs
/// disagree, or when jobs go missing; cluster errors on malformed
/// traces.
pub fn run(seed: u64, config: &GapConfig) -> Result<Vec<SimPoint>> {
    let threads = config.threads.max(1);
    let mut out = Vec::new();
    for &(shards, nodes_per_shard, jobs_per_shard) in &sizes(config.quick) {
        let total_jobs = shards * jobs_per_shard;
        let (text, jobs) = build_trace(seed, shards, nodes_per_shard, jobs_per_shard)?;
        let span = jobs.last().map_or(1.0, |j| j.submit);
        let window = (span / WINDOWS_PER_SPAN).max(1.0);
        let reps = reps_for(total_jobs, config.quick);
        let mut reference: Option<u64> = None;
        let mut heap_median = 1.0f64;
        for (arm, arm_threads) in [(ARMS[0], 1usize), (ARMS[1], threads)] {
            let sim = WindowedSim::new(WindowedSpec {
                nodes_per_shard,
                shards,
                policy: Policy::EasyBackfill,
                faults: fault_model(seed ^ 0xE23),
                window,
                threads: arm_threads,
            })?;
            // Verification replay: straight off the SWF text, streaming.
            let streamed = sim.run_stream(stream_jobs(&text))?;
            let digest = streamed.digest();
            if streamed.completed() + streamed.abandoned() != total_jobs {
                return Err(Error::VerificationFailed(format!(
                    "E23 {arm}: {} of {total_jobs} jobs resolved",
                    streamed.completed() + streamed.abandoned()
                )));
            }
            match reference {
                None => reference = Some(digest),
                Some(r) if r != digest => {
                    return Err(Error::VerificationFailed(format!(
                        "E23 nodes={}: arm `{arm}` digest {digest:#018x} \
                         diverges from serial-heap {r:#018x}",
                        shards * nodes_per_shard
                    )));
                }
                Some(_) => {}
            }
            // Timed replays on the materialized canonical jobs.
            let m = measure_with(
                reps,
                || jobs.clone(),
                |replay| sim.run(replay),
                |timed| {
                    verify(timed?.digest() == digest, || {
                        format!("E23 {arm}: materialized replay diverges from the SWF stream")
                    })
                },
            )?
            .median_s;
            if arm == ARMS[0] {
                heap_median = m;
            }
            out.push(SimPoint {
                nodes: shards * nodes_per_shard,
                jobs: total_jobs,
                shards,
                arm: arm.into(),
                threads: arm_threads,
                windows: streamed.windows,
                events: streamed.events(),
                median_s: m,
                events_per_s: streamed.events() as f64 / m,
                speedup_vs_heap: heap_median / m,
                checksum: digest,
                verified: true,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_every_cell_with_one_digest_per_size() {
        let rows = run(0xE23, &GapConfig::quick()).expect("quick run verifies");
        let sizes = sizes(true);
        assert_eq!(rows.len(), sizes.len() * ARMS.len());
        for (i, &(shards, nodes_per_shard, jobs_per_shard)) in sizes.iter().enumerate() {
            let cell = &rows[i * ARMS.len()..(i + 1) * ARMS.len()];
            let arms: Vec<_> = cell.iter().map(|p| p.arm.as_str()).collect();
            assert_eq!(arms, ARMS.to_vec());
            for p in cell {
                assert_eq!(p.nodes, shards * nodes_per_shard);
                assert_eq!(p.jobs, shards * jobs_per_shard);
                assert_eq!(p.checksum, cell[0].checksum, "{}: digest diverges", p.arm);
                assert_eq!(p.events, cell[0].events, "{}: event count diverges", p.arm);
                assert_eq!(p.windows, cell[0].windows);
                assert!(p.verified);
                assert!(p.median_s > 0.0 && p.events_per_s > 0.0);
                assert!(p.speedup_vs_heap > 0.0);
            }
            assert!((cell[0].speedup_vs_heap - 1.0).abs() < 1e-12);
            assert_eq!(cell[0].threads, 1);
        }
    }

    #[test]
    fn digests_are_deterministic_across_runs() {
        let a = run(11, &GapConfig::quick()).unwrap();
        let b = run(11, &GapConfig::quick()).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.nodes, x.arm.as_str()), (y.nodes, y.arm.as_str()));
            assert_eq!(x.checksum, y.checksum);
            assert_eq!(x.events, y.events);
        }
    }

    #[test]
    fn trace_builder_emits_unique_sorted_replayable_jobs() {
        let (text, jobs) = build_trace(5, 3, 16, 40).unwrap();
        assert_eq!(jobs.len(), 120);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 120, "ids must be unique after remapping");
        for w in jobs.windows(2) {
            assert!(w[0].submit <= w[1].submit);
        }
        assert!(jobs.iter().all(|j| j.nodes <= 16 && j.is_valid()));
        // Streaming the text yields exactly the materialized jobs.
        let streamed: Vec<_> = stream_jobs(&text).map(|r| r.unwrap()).collect();
        assert_eq!(streamed, jobs);
    }
}
