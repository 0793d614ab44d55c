//! Property tests: all execution tiers agree on randomly generated
//! programs, with and without the optimizer — the strongest guarantee the
//! crate offers, because the E5/E11 timing claims are only meaningful if
//! every tier computes the same thing.

mod common;

use common::{small_expr, stmts_over};
use proptest::prelude::*;
use rcr_minilang::{
    absint, bytecode, jit, parser, peephole, run_source, run_source_vm, run_source_vm_fused,
    run_source_vm_jit, run_source_vm_optimized, vm, Value,
};

/// Strategy: a random expression string over the predeclared variables
/// `x`, `y`, `z` (numbers) and `f` (bool), with literals and nested
/// arithmetic/comparison/logic.
fn expr_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-20i32..20).prop_map(|n| n.to_string()),
        Just("x".to_owned()),
        Just("y".to_owned()),
        Just("z".to_owned()),
        Just("f".to_owned()),
        Just("true".to_owned()),
        Just("false".to_owned()),
        Just("nil".to_owned()),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just("+"),
                    Just("-"),
                    Just("*"),
                    Just("/"),
                    Just("%"),
                    Just("=="),
                    Just("!="),
                    Just("<"),
                    Just("<="),
                    Just(">"),
                    Just(">="),
                    Just("and"),
                    Just("or"),
                ]
            )
                .prop_map(|(l, r, op)| format!("({l} {op} {r})")),
            inner.clone().prop_map(|e| format!("(-{e})")),
            inner.clone().prop_map(|e| format!("(not {e})")),
            // Branch whose value flows to the result only via variables.
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, a, b)| format!("(if {c} {{ {a} }} else {{ {b} }} )")),
        ]
    })
    // `if` as an expression is not in the grammar; strip those forms back
    // out by wrapping in a full statement program below instead.
    .prop_filter("if-expressions handled at program level", |s| {
        !s.contains("if ")
    })
}

/// Strategy: a random *statement* — assignments at the leaves, `if`/`else`
/// and bounded `for` loops above them — exercising control flow, scoping,
/// and jump compilation rather than just expression evaluation.
fn stmt_strategy() -> impl Strategy<Value = String> {
    stmts_over((0usize..4, small_expr()).prop_map(|(k, e)| format!("v{k} = {e};")))
}

/// Like [`stmt_strategy`], with leaves that also allocate: an array
/// literal (16 bytes per element) or a `zeros` call (8 bytes per float),
/// so memory quotas run out at generated points too.
fn alloc_stmt_strategy() -> impl Strategy<Value = String> {
    stmts_over(prop_oneof![
        (0usize..4, small_expr()).prop_map(|(k, e)| format!("v{k} = {e};")),
        (0usize..4, 0usize..4).prop_map(|(k, j)| format!("v{k} = v{k} + len([v{j}, {k}]);")),
        (0usize..4, 1u32..6).prop_map(|(k, n)| format!("v{k} = v{k} - len(zeros({n}));")),
    ])
}

/// Wraps an expression in a program that declares the free variables.
fn program(expr: &str, x: i32, y: i32, z: i32, f: bool) -> String {
    format!("let x = {x};\nlet y = {y};\nlet z = {z};\nlet f = {f};\n{expr}")
}

/// Runs `code` on a VM whose fuel arrives `slice` at a time through the
/// refill hook, up to `quota` in total: the way a deadline-checking host
/// runs it.
fn run_in_slices(
    code: &bytecode::Compiled,
    jit: Option<&jit::Jit>,
    slice: u64,
    quota: u64,
    memory: Option<u64>,
) -> Result<Value, rcr_minilang::Error> {
    let first = slice.min(quota);
    let mut granted = first;
    let mut refill = || {
        let more = slice.min(quota - granted);
        granted += more;
        (more > 0).then_some(more)
    };
    vm::Vm::with_limits(Some(first), memory).run_with_refill(code, jit, &mut refill)
}

/// Compares results through their display form, with NaN normalized, and
/// errors exactly.
fn key(r: Result<Value, rcr_minilang::Error>) -> Result<String, rcr_minilang::Error> {
    r.map(|v| match v {
        Value::Num(n) if n.is_nan() => "NaN".to_owned(),
        v => v.to_string(),
    })
}

/// Compiles `src` the three ways the tiers run it: plain bytecode, the
/// fused bytecode, and a JIT engine over the fused bytecode.
fn tiers(src: &str) -> (bytecode::Compiled, bytecode::Compiled, jit::Jit) {
    let program = parser::parse(src).expect("test programs parse");
    let compiled = bytecode::compile(&program).expect("test programs compile");
    let facts = absint::analyze(&program).facts;
    let fused =
        peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts));
    let engine = jit::Jit::new(&fused, jit::JitConfig::default(), Some(&facts));
    (compiled, fused, engine)
}

#[test]
fn a_stopped_refill_ends_the_run_within_one_slice() {
    // A hook that stops after `k` grants ends the run at the first block
    // boundary past `(k + 1) · s` fuel: a runaway loop reports exactly that
    // total limit after exactly `k + 1` questions, and a program needing
    // `need` fuel finishes iff `(k + 1) · s >= need`. So once a host's
    // hook sees its deadline pass, at most one more slice (plus the block
    // in flight) runs, whatever the wall clock does.
    let runaway = "fn f(x) { return x + 1; } let v = 0; while true { v = f(v); }";
    let finite = "fn f(x) { return x + 1; } let v = 0; for i in range(0, 40) { v = f(v); } v";
    let (plain, fused, engine) = tiers(runaway);
    let (fplain, ffused, fengine) = tiers(finite);
    // The least fuel each tier needs for `finite` in one run.
    let need = |code: &bytecode::Compiled, jit: Option<&jit::Jit>| {
        (0..10_000)
            .find(|&q| {
                let mut vm = vm::Vm::with_fuel(q);
                match jit {
                    Some(engine) => vm.run_jit(code, engine).is_ok(),
                    None => vm.run(code).is_ok(),
                }
            })
            .expect("finite program finishes")
    };
    for (s, k) in [(1, 0), (1, 5), (7, 3), (50, 10), (64, 0), (1_000, 2)] {
        let limit = (k + 1) * s;
        let stop = |code: &bytecode::Compiled, jit: Option<&jit::Jit>| {
            let mut asked = 0;
            let mut refill = || {
                asked += 1;
                (asked <= k).then_some(s)
            };
            let result = vm::Vm::with_fuel(s).run_with_refill(code, jit, &mut refill);
            (result, asked)
        };
        for (name, code, jit) in [
            ("vm", &plain, None),
            ("fused vm", &fused, None),
            ("jit", &fused, Some(&engine)),
        ] {
            let (result, asked) = stop(code, jit);
            assert_eq!(
                result,
                Err(rcr_minilang::Error::FuelExhausted { budget: limit }),
                "{name}, s={s}, k={k}"
            );
            assert_eq!(asked, k + 1, "{name}, s={s}, k={k}");
        }
        for (name, code, jit) in [
            ("vm", &fplain, None),
            ("fused vm", &ffused, None),
            ("jit", &ffused, Some(&fengine)),
        ] {
            let (result, _) = stop(code, jit);
            assert_eq!(
                result.is_ok(),
                limit >= need(code, jit),
                "{name}, s={s}, k={k}"
            );
        }
    }
}

fn outcome(r: Result<Value, rcr_minilang::Error>) -> Result<Value, ()> {
    r.map_err(|_| ())
}

/// Like [`outcome`] but compares through the display form, normalizing NaN
/// (repeated multiplication can overflow to inf, and inf - inf is NaN,
/// which is never `==` itself).
fn norm(r: Result<Value, rcr_minilang::Error>) -> Result<String, ()> {
    r.map(|v| match v {
        Value::Num(n) if n.is_nan() => "NaN".to_owned(),
        v => v.to_string(),
    })
    .map_err(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interp_and_vm_agree_on_random_expressions(
        expr in expr_strategy(),
        x in -10i32..10,
        y in -10i32..10,
        z in 1i32..10, // keep one guaranteed non-zero divisor available
        f in any::<bool>(),
    ) {
        let src = program(&expr, x, y, z, f);
        let a = outcome(run_source(&src));
        let b = outcome(run_source_vm(&src));
        prop_assert_eq!(a, b, "tiers disagree on: {}", src);
    }

    #[test]
    fn optimizer_preserves_semantics_on_random_expressions(
        expr in expr_strategy(),
        x in -10i32..10,
        y in -10i32..10,
        z in 1i32..10,
        f in any::<bool>(),
    ) {
        let src = program(&expr, x, y, z, f);
        let plain = outcome(run_source_vm(&src));
        let optimized = outcome(run_source_vm_optimized(&src));
        prop_assert_eq!(plain, optimized, "optimizer changed: {}", src);
    }

    #[test]
    fn random_loop_programs_agree(
        bound in 0u32..20,
        step_expr in expr_strategy(),
        x in -5i32..5,
    ) {
        // Accumulate the expression over a loop; exercises scoping, jumps,
        // and the result register together.
        let src = format!(
            "let x = {x};\nlet y = 1;\nlet z = 2;\nlet f = false;\nlet acc = 0;\n\
             for i in range(0, {bound}) {{\n\
                 let v = {step_expr};\n\
                 if v == nil or v == true or v == false {{ acc = acc + 1; }} else {{ acc = acc + v; }}\n\
             }}\nacc"
        );
        let a = outcome(run_source(&src));
        let b = outcome(run_source_vm(&src));
        let c = outcome(run_source_vm_optimized(&src));
        let d = outcome(run_source_vm_fused(&src));
        let e = outcome(run_source_vm_jit(&src));
        prop_assert_eq!(a.clone(), b, "interp vs vm on: {}", src);
        prop_assert_eq!(a.clone(), c, "interp vs optimized vm on: {}", src);
        prop_assert_eq!(a.clone(), d, "interp vs fused vm on: {}", src);
        prop_assert_eq!(a, e, "interp vs jit vm on: {}", src);
    }

    #[test]
    fn random_statement_programs_agree_after_optimization(
        stmts in proptest::collection::vec(stmt_strategy(), 1..6),
        a in -5i32..5,
        b in -5i32..5,
        c in -5i32..5,
        d in -5i32..5,
    ) {
        // Tree-walk the program as written; run the optimized form on the
        // VM and the peephole-fused bytecode on the fused VM. Statement
        // generation covers branches, loops, and assignment interleavings
        // the expression strategies cannot reach — exactly the shapes the
        // superinstruction windows (IncLocal, AddStackToLocal, BinLL/BinLC,
        // JumpIfNotCmp) rewrite.
        let src = format!(
            "let v0 = {a};\nlet v1 = {b};\nlet v2 = {c};\nlet v3 = {d};\n{}\nv0 + v1 + v2 + v3",
            stmts.join("\n")
        );
        let tree = norm(run_source(&src));
        let vm = norm(run_source_vm_optimized(&src));
        let fused = norm(run_source_vm_fused(&src));
        let jitted = norm(run_source_vm_jit(&src));
        prop_assert_eq!(tree.clone(), vm, "tiers disagree on: {}", src);
        prop_assert_eq!(tree.clone(), fused, "fused vm disagrees on: {}", src);
        prop_assert_eq!(tree, jitted, "jit vm disagrees on: {}", src);
    }

    #[test]
    fn jit_fuel_accounting_matches_fused_vm_at_random_budgets(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5),
        budget in 0u64..800,
    ) {
        // The JIT must charge fuel bit-identically to the fused VM: at
        // *every* budget both tiers make the same success/failure call,
        // return the same value, or fail with the same typed error.
        let src = format!(
            "let v0 = 1;\nlet v1 = 2;\nlet v2 = 3;\nlet v3 = 4;\n{}\nv0 + v1 + v2 + v3",
            stmts.join("\n")
        );
        let program = parser::parse(&src).expect("generated programs parse");
        let compiled = bytecode::compile(&program).expect("generated programs compile");
        let facts = absint::analyze(&program).facts;
        let fused =
            peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts));
        let engine = jit::Jit::new(&fused, jit::JitConfig::default(), Some(&facts));
        let a = key(vm::Vm::with_fuel(budget).run(&fused));
        let b = key(vm::Vm::with_fuel(budget).run_jit(&fused, &engine));
        prop_assert_eq!(a, b, "fuel divergence at budget {} on: {}", budget, src);
    }

    #[test]
    fn resumed_fuel_slices_end_like_one_run_at_the_quota(
        stmts in proptest::collection::vec(alloc_stmt_strategy(), 1..5),
        slice in 1u64..500,
        quota in 0u64..800,
        memory in 0u64..1_500,
        limit_memory in any::<bool>(),
    ) {
        // Granting fuel `slice` at a time up to `quota` must end exactly
        // like one run with `quota` fuel: the same value, or the same typed
        // error (`FuelExhausted` reports the whole quota, and a memory quota
        // runs out at the same allocation) — on every tier.
        let src = format!(
            "let v0 = 1;\nlet v1 = 2;\nlet v2 = 3;\nlet v3 = 4;\n{}\nv0 + v1 + v2 + v3",
            stmts.join("\n")
        );
        let memory = limit_memory.then_some(memory);
        let (plain, fused, engine) = tiers(&src);
        for (name, code, jit) in [
            ("vm", &plain, None),
            ("fused vm", &fused, None),
            ("jit", &fused, Some(&engine)),
        ] {
            let mut whole = vm::Vm::with_limits(Some(quota), memory);
            let whole = key(match jit {
                Some(engine) => whole.run_jit(code, engine),
                None => whole.run(code),
            });
            let sliced = key(run_in_slices(code, jit, slice, quota, memory));
            prop_assert_eq!(
                whole,
                sliced,
                "{} diverges at slice {} quota {} memory {:?} on: {}",
                name,
                slice,
                quota,
                memory,
                src
            );
        }
    }

    #[test]
    fn jit_guard_deopt_matches_interpreter_on_mixed_call_types(
        body in small_expr(),
        x in -5i32..5,
    ) {
        // The first call compiles the function under numeric entry guards;
        // the second call's string/nil/bool arguments fail those guards and
        // must deoptimize to the fused VM with identical results — whether
        // the mixed-type body evaluates cleanly (string concat) or raises
        // (string arithmetic).
        let src = format!(
            "fn g(v0, v1, v2, v3) {{ return {body}; }}\n\
             let warm = g({x}, 2, 3, 4);\n\
             let cold = g(\"a\", \"b\", nil, true);\n\
             let again = g({x}, 2, 3, 4);\n\
             warm + again"
        );
        let a = outcome(run_source(&src));
        let b = outcome(run_source_vm_fused(&src));
        let c = outcome(run_source_vm_jit(&src));
        prop_assert_eq!(a.clone(), b, "fused vm disagrees on: {}", src);
        prop_assert_eq!(a, c, "jit deopt disagrees on: {}", src);
    }
}
