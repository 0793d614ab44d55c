//! # rcr-serve
//!
//! A fault-hardened multi-tenant ResearchScript execution service — the
//! "shared departmental compute service" counterpart to the batch cluster
//! of `rcr-cluster`: researchers submit scripts interactively and the
//! service must degrade *predictably* under overload and faults instead of
//! collapsing.
//!
//! The robustness contract, end to end:
//!
//! * **Closed outcome space.** Every submission terminates in exactly one
//!   of: synchronous typed rejection ([`Rejected`]), [`Outcome::Completed`],
//!   or [`Outcome::Failed`] with a typed [`JobError`]. No panic escapes, no
//!   handle hangs (see the liveness argument in [`service`]).
//! * **Explicit shedding.** Admission is a per-tenant token bucket in front
//!   of a bounded queue ([`admission`]); overload produces
//!   [`Rejected::Overloaded`] at submission, never queue collapse.
//! * **Static admission.** The abstract interpreter's fuel cost report
//!   (`rcr_minilang::absint`) is consulted at submit time: a job whose
//!   static fuel *lower bound* provably exceeds its tenant's quota is shed
//!   as [`Rejected::StaticallyInfeasible`] before it costs a queue slot, a
//!   compile, or an execution (memoized per content hash).
//! * **Quotas.** Per-tenant fuel *and* memory budgets
//!   ([`TenantQuota`]) are enforced on every attempt, with byte-identical
//!   semantics across interpreter and VM tiers (tested in `rcr-minilang`).
//! * **Deadlines.** Enforced in the queue, mid-execution between resumed
//!   fuel slices, and on the finished-late path.
//! * **Retries.** Transient faults (injected via
//!   `rcr_cluster::faults::FaultPlan`) retry with seeded exponential
//!   backoff ([`backoff`]); deterministic failures never retry.
//! * **Blast-radius control.** Per-tenant circuit breakers ([`breaker`])
//!   stop a failing tenant from monopolising executors; a panicking job is
//!   caught by `catch_unwind` on its executor thread.
//! * **Compile dedup.** A content-hash program cache with single-flight
//!   dedup ([`cache`]) makes compile storms cost one compilation.
//!
//! Experiment E19 drives this service through an open-loop overload sweep
//! crossed with a fault-rate ablation and reports throughput, latency
//! percentiles, shed rate, retry success, and goodput/badput.
//!
//! ```
//! use rcr_serve::{JobSpec, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig::default());
//! let handle = service.submit(JobSpec::new(0, "6 * 7")).unwrap();
//! let outcome = handle.wait();
//! assert!(outcome.is_completed());
//! service.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backoff;
pub mod breaker;
pub mod cache;
pub mod job;
pub mod program;
pub mod service;

pub use backoff::BackoffPolicy;
pub use breaker::{BreakerState, CircuitBreaker};
pub use cache::{CacheStats, ProgramCache, DEFAULT_CAPACITY as PROGRAM_CACHE_CAPACITY};
pub use job::{JobError, JobSpec, Outcome, Rejected};
pub use program::{content_hash, static_fuel_lower_bound, ProgramArtifact};
pub use service::{JobHandle, MetricsSnapshot, Service, ServiceConfig, TenantQuota};
