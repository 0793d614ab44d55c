//! Property tests for the abstract interpreter's soundness contract: on
//! randomly generated programs, whatever the fixpoint *proves* must hold
//! on the concrete execution.
//!
//! Three claims are probed, each against the unlimited tree-walk run:
//!
//! 1. **Value soundness.** The concrete program result is contained in the
//!    abstraction of the result (type membership, and for numbers the
//!    interval, with NaN exempt — no total order).
//! 2. **Cost upper bound.** When the fuel interval has a finite upper
//!    bound `hi`, the interpreter completes within a budget of `hi`.
//! 3. **Cost lower bound.** A budget of `lo - 1` provably starves the
//!    program: the interpreter fails with fuel exhaustion, and so does the
//!    maximally-fused VM — the bound must survive superinstruction fusion,
//!    because static admission in `rcr-serve` sheds jobs with it.
//!
//! A program that terminates also refutes `lo == u64::MAX` (the divergence
//! proof), so that is asserted too.

mod common;

use common::{small_expr, stmts_over};
use proptest::prelude::*;
use rcr_minilang::{absint, bytecode, interp, parser, peephole, run_source, vm, Error, Value};

/// Strategy: statements covering the shapes the lattice reasons about —
/// scalar assignment, guarded branches, bounded `for` loops, and stores
/// into the predeclared float array `arr` (always in bounds, so the clean
/// program carries no diagnostics by construction).
fn stmt_strategy() -> impl Strategy<Value = String> {
    stmts_over(prop_oneof![
        (0usize..4, small_expr()).prop_map(|(k, e)| format!("v{k} = {e};")),
        (0usize..8, small_expr()).prop_map(|(k, e)| format!("arr[{k}] = {e};")),
    ])
}

/// True when the abstraction `a` admits the concrete value `v`. NaN is
/// exempt from the interval check (no total order), and a NaN interval
/// endpoint — conservative garbage from ∞ arithmetic — admits anything.
fn abstraction_admits(v: &Value, a: &absint::AbsVal) -> bool {
    use absint::TypeSet as T;
    match v {
        Value::Nil => a.types.may(T::NIL),
        Value::Bool(_) => a.types.may(T::BOOL),
        Value::Num(n) => {
            a.types.may(T::NUM)
                && (n.is_nan()
                    || a.num.lo.is_nan()
                    || a.num.hi.is_nan()
                    || (*n >= a.num.lo && *n <= a.num.hi))
        }
        Value::Str(_) => a.types.may(T::STR),
        Value::Array(_) => a.types.may(T::ARR),
        Value::FloatArray(_) => a.types.may(T::FARR),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn proved_facts_hold_on_the_concrete_execution(
        stmts in proptest::collection::vec(stmt_strategy(), 1..6),
        a in -5i32..5,
        b in -5i32..5,
        c in -5i32..5,
        d in -5i32..5,
    ) {
        let src = format!(
            "let v0 = {a};\nlet v1 = {b};\nlet v2 = {c};\nlet v3 = {d};\n\
             let arr = zeros(8);\n{}\nv0 + v1 + v2 + v3 + vsum(arr)",
            stmts.join("\n")
        );
        let program = parser::parse(&src).expect("generated program parses");
        let analysis = absint::analyze(&program);

        let concrete = run_source(&src);
        let Ok(value) = concrete else {
            // Runtime errors (e.g. overflow-to-NaN comparisons) void the
            // budget probes; analysis not panicking is the claim here.
            return Ok(());
        };

        // 1. Value soundness.
        prop_assert!(
            abstraction_admits(&value, &analysis.main_result),
            "concrete result {value} escapes abstraction {} on: {src}",
            analysis.main_result
        );

        let cost = analysis.cost.program;
        // A terminating program refutes a divergence proof.
        prop_assert!(cost.lo != u64::MAX, "divergence proved for a terminating program: {src}");

        // 2. Upper bound: a budget of `hi` is enough for the interpreter.
        if let Some(hi) = cost.hi {
            let fueled = interp::Interpreter::with_fuel(hi).run(&program);
            prop_assert!(
                fueled.is_ok(),
                "interp starved within the proved upper bound {hi} on: {src}"
            );
        }

        // 3. Lower bound: `lo - 1` starves every tier, including the
        // maximally-fused VM that static admission reasons about.
        if cost.lo > 0 {
            let starved = interp::Interpreter::with_fuel(cost.lo - 1)
                .run(&program)
                .expect_err("interp must starve below the lower bound");
            prop_assert!(
                matches!(starved, Error::FuelExhausted { .. }),
                "interp failed below lo with {starved} (not fuel) on: {src}"
            );

            let compiled = bytecode::compile(&program).expect("compiles");
            let fused = peephole::optimize_with_facts(
                &compiled,
                peephole::Options::default(),
                Some(&analysis.facts),
            );
            let starved = vm::Vm::with_fuel(cost.lo - 1)
                .run(&fused)
                .expect_err("fused vm must starve below the lower bound");
            prop_assert!(
                matches!(starved, Error::FuelExhausted { .. }),
                "fused vm failed below lo with {starved} (not fuel) on: {src}"
            );
        }
    }
}
