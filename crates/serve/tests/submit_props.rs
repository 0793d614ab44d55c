//! Generated inputs at the `Service::submit` boundary. A mixed stream of
//! sources (feasible, statically infeasible, non-terminating, unparseable,
//! and parse-but-uncompilable) goes through a service whose program cache
//! holds only a few entries, so entries are evicted between a job's
//! admission and its execution. Every decision must equal the static
//! fuel-bound oracle, every completed output must equal the reference VM,
//! the counters must conserve jobs, and a resident program's front end must
//! never run twice.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;
use rcr_minilang::run_source_vm_fused;
use rcr_serve::{
    static_fuel_lower_bound, JobError, JobSpec, Outcome, ProgramArtifact, Rejected, Service,
    ServiceConfig, TenantQuota,
};

const QUOTA: u64 = 5_000;
const CAPACITY: usize = 3;

/// Strategy: one source from a small parameter space, so the same program
/// often recurs within a case.
fn source_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        // Feasible below ~400 iterations, statically infeasible above.
        (0u32..12, 1u32..4).prop_map(|(n, k)| format!(
            "let s = 0; for i in range(0, {}) {{ s = s + i * {k}; }} s",
            n * 100
        )),
        (-9i32..10, -9i32..10).prop_map(|(a, b)| format!("let x = {a}; let y = {b}; x * y - x")),
        (1u32..4).prop_map(|k| format!("let x = 0; while true {{ x = x + {k}; }} x")),
        (0u32..3).prop_map(|k| format!("let = {k};")),
        (0u32..12).prop_map(|n| format!(
            "fn f() {{ return 1; }} fn f() {{ return 2; }} \
             let s = 0; for i in range(0, {}) {{ s = s + i; }} s",
            n * 100
        )),
    ]
}

fn config() -> ServiceConfig {
    ServiceConfig {
        tenants: vec![TenantQuota {
            fuel: QUOTA,
            memory: 1 << 20,
        }],
        queue_capacity: 1024,
        admission_rate: 1e9,
        admission_burst: 1e9,
        default_deadline: Duration::from_secs(30),
        // Failing jobs must not trip the breaker into CircuitOpen
        // rejections the static oracle cannot predict.
        breaker_threshold: u32::MAX,
        program_cache_capacity: CAPACITY,
        ..ServiceConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn submit_decisions_outputs_and_counters_hold_under_eviction(
        sources in proptest::collection::vec(source_strategy(), 1..24),
    ) {
        let service = Service::new(config());
        let mut admitted = Vec::new();
        for src in &sources {
            // Submitted twice back to back: the second submission finds the
            // entry the first one made resident and runs no front end.
            for repeat in 0..2 {
                let analyses = service.cache_stats().analyses;
                let decision = service.submit(JobSpec::new(0, src.as_str()));
                if repeat == 1 {
                    prop_assert_eq!(service.cache_stats().analyses, analyses, "{}", src);
                }
                let oracle = static_fuel_lower_bound(src).filter(|&lo| lo > QUOTA);
                match decision {
                    Ok(handle) => {
                        prop_assert_eq!(oracle, None, "{}", src);
                        admitted.push((src, handle));
                    }
                    Err(Rejected::StaticallyInfeasible { required, budget }) => {
                        prop_assert_eq!(Some(required), oracle, "{}", src);
                        prop_assert_eq!(budget, QUOTA);
                    }
                    Err(other) => prop_assert!(false, "{other:?} for {src}"),
                }
            }
        }
        for (src, handle) in &admitted {
            match handle.wait() {
                Outcome::Completed { output, .. } => {
                    let reference = run_source_vm_fused(src).expect("reference run");
                    prop_assert_eq!(output, reference.to_string(), "{}", src);
                }
                Outcome::Failed(JobError::Compile(_)) => {
                    prop_assert!(ProgramArtifact::compile(src).is_err(), "{}", src);
                }
                Outcome::Failed(e) => {
                    prop_assert!(ProgramArtifact::compile(src).is_ok(), "{e:?} for {src}");
                }
            }
        }
        service.shutdown();

        let m = service.metrics();
        prop_assert_eq!(m.completed + m.failed + m.cancelled, m.admitted);
        let rejected = m.shed_overloaded
            + m.rejected_circuit_open
            + m.rejected_unknown_tenant
            + m.rejected_shutting_down
            + m.rejected_statically_infeasible;
        prop_assert_eq!(m.submitted, m.admitted + rejected);
        prop_assert_eq!(m.submitted, 2 * sources.len() as u64);

        // A program is analyzed again only after its entry was evicted.
        let distinct = sources.iter().collect::<HashSet<_>>().len() as u64;
        let stats = service.cache_stats();
        prop_assert!(stats.analyses >= distinct, "{stats:?}");
        prop_assert!(stats.analyses <= distinct + stats.evictions, "{stats:?}");
        prop_assert!(stats.misses <= stats.analyses, "{stats:?}");
    }
}
