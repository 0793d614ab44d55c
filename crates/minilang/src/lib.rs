//! # rcr-minilang — "ResearchScript"
//!
//! A small dynamically-typed scripting language standing in for the
//! interpreted languages (Python, MATLAB, R) that dominate research
//! computing. It exists so the performance-gap experiments (E5, E11) can
//! measure the *mechanism* of the interpreted-vs-compiled gap — dynamic
//! dispatch, boxed values, per-operation overhead — on exactly the same
//! kernels the native suite runs, instead of quoting folklore constants.
//!
//! Four execution tiers mirror how researchers actually climb the
//! performance ladder:
//!
//! 1. [`interp`] — a tree-walking AST interpreter (a naive CPython analog),
//! 2. [`vm`] — a bytecode compiler + stack VM (an optimized interpreter),
//! 3. vectorized [`builtins`] over contiguous float arrays (the "rewrite the
//!    hot loop with NumPy" move),
//! 4. [`jit`] — hot functions compiled at runtime to a typed register IR
//!    (the PyPy/Numba move), with guard-failure deoptimization back to
//!    the fused VM.
//!
//! ## Language sketch
//!
//! ```text
//! fn dot(a, b, n) {
//!     let acc = 0;
//!     for i in range(0, n) {
//!         acc = acc + a[i] * b[i];
//!     }
//!     return acc;
//! }
//! let x = fill(1000, 1.5);
//! let y = fill(1000, 2.0);
//! print(dot(x, y, 1000));
//! ```
//!
//! ## Quick start
//!
//! ```
//! use rcr_minilang::{run_source, run_source_vm, Value};
//!
//! let program = "let t = 0; for i in range(0, 10) { t = t + i; } t";
//! assert_eq!(run_source(program).unwrap(), Value::Num(45.0));
//! assert_eq!(run_source_vm(program).unwrap(), Value::Num(45.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod diagnostics;
pub mod disasm;
pub mod error;
pub mod interp;
pub mod jit;
pub mod lexer;
pub mod lint;
pub mod optimize;
pub mod parser;
pub mod peephole;
pub mod value;
pub mod vm;

pub use error::{Error, Result};
pub use value::Value;

/// Like [`run_source_vm`], but runs the constant-folding optimizer between
/// parsing and compilation.
///
/// # Errors
/// Lexing, parsing, compilation, or runtime errors.
pub fn run_source_vm_optimized(src: &str) -> Result<Value> {
    let program = parser::parse(src)?;
    let optimized = optimize::optimize(&program);
    let compiled = bytecode::compile(&optimized)?;
    let mut m = vm::Vm::new();
    m.run(&compiled)
}

/// Parses and runs a program with the tree-walking interpreter, returning
/// the value of the final expression statement (or [`Value::Nil`]).
///
/// # Errors
/// Lexing, parsing, or runtime errors.
pub fn run_source(src: &str) -> Result<Value> {
    let program = parser::parse(src)?;
    let mut i = interp::Interpreter::new();
    i.run(&program)
}

/// Parses, compiles, and runs a program on the bytecode VM, returning the
/// value of the final expression statement (or [`Value::Nil`]).
///
/// # Errors
/// Lexing, parsing, compilation, or runtime errors.
pub fn run_source_vm(src: &str) -> Result<Value> {
    let program = parser::parse(src)?;
    let compiled = bytecode::compile(&program)?;
    let mut m = vm::Vm::new();
    m.run(&compiled)
}

/// Like [`run_source_vm`], but runs the [`peephole`] superinstruction pass
/// over the compiled bytecode first — the "fused VM" tier that E11/E16
/// measure. The pass consumes [`absint`] type facts from the same AST, so
/// float-array proofs flow through function returns.
///
/// # Errors
/// Lexing, parsing, compilation, or runtime errors.
pub fn run_source_vm_fused(src: &str) -> Result<Value> {
    let program = parser::parse(src)?;
    let compiled = bytecode::compile(&program)?;
    let facts = absint::analyze(&program).facts;
    let fused =
        peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts));
    let mut m = vm::Vm::new();
    m.run(&fused)
}

/// Like [`run_source_vm_fused`], but executes through the [`jit`] tier:
/// hot functions (including the program entry) compile to typed register
/// IR and run on the compiled tier, deoptimizing to the fused VM on entry
/// guard failure. Results, errors, fuel, and memory accounting are
/// bit-identical to the fused VM.
///
/// # Errors
/// Lexing, parsing, compilation, or runtime errors.
pub fn run_source_vm_jit(src: &str) -> Result<Value> {
    run_source_vm_jit_counted(src).map(|(value, _)| value)
}

/// Like [`run_source_vm_jit`], and also returns how many functions the JIT
/// compiled during the run.
///
/// # Errors
/// Lexing, parsing, compilation, or runtime errors.
pub fn run_source_vm_jit_counted(src: &str) -> Result<(Value, u32)> {
    let program = parser::parse(src)?;
    let compiled = bytecode::compile(&program)?;
    let facts = absint::analyze(&program).facts;
    let fused =
        peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts));
    let engine = jit::Jit::new(&fused, jit::JitConfig::default(), Some(&facts));
    let mut m = vm::Vm::new();
    let value = m.run_jit(&fused, &engine)?;
    Ok((value, engine.stats().compiled()))
}

#[cfg(test)]
mod tier_equivalence {
    use super::*;

    /// Programs both tiers must agree on, exercised as a matrix.
    const PROGRAMS: &[(&str, &str)] = &[
        ("arith", "1 + 2 * 3 - 4 / 2"),
        ("precedence", "(1 + 2) * (3 - 1)"),
        ("unary", "-3 + 10"),
        ("mod", "17 % 5"),
        ("cmp", "1 < 2 and 3 >= 3 and not (2 == 3)"),
        ("string", "\"a\" + \"b\""),
        ("ternary-ish", "if 1 < 2 { 10 } else { 20 }"),
        (
            "while",
            "let i = 0; let s = 0; while i < 5 { s = s + i; i = i + 1; } s",
        ),
        ("for", "let s = 0; for i in range(0, 10) { s = s + i; } s"),
        (
            "nested-for",
            "let s = 0; for i in range(0, 4) { for j in range(0, 4) { s = s + i * j; } } s",
        ),
        ("fn", "fn sq(x) { return x * x; } sq(7)"),
        (
            "recursion",
            "fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(12)",
        ),
        ("array", "let a = [1, 2, 3]; a[0] + a[2]"),
        ("array-set", "let a = [0, 0]; a[1] = 9; a[1]"),
        ("farray", "let a = fill(4, 2.5); a[3] * len(a)"),
        (
            "push",
            "let a = []; push(a, 5); push(a, 6); a[0] + a[1] + len(a)",
        ),
        (
            "break",
            "let s = 0; for i in range(0, 100) { if i == 5 { break; } s = s + i; } s",
        ),
        (
            "continue",
            "let s = 0; for i in range(0, 10) { if i % 2 == 0 { continue; } s = s + i; } s",
        ),
        ("builtin-math", "sqrt(16) + abs(0 - 3) + floor(2.9)"),
        (
            "vector",
            "let a = fill(100, 2.0); let b = fill(100, 3.0); vdot(a, b)",
        ),
        ("shadow-scope", "let x = 1; { let x = 2; } x"),
    ];

    /// Build the fused program plus an always-hot JIT engine for `src`.
    fn jit_setup(src: &str) -> (bytecode::Compiled, jit::Jit) {
        let program = parser::parse(src).expect("parses");
        let compiled = bytecode::compile(&program).expect("compiles");
        let facts = absint::analyze(&program).facts;
        let fused =
            peephole::optimize_with_facts(&compiled, peephole::Options::default(), Some(&facts));
        let engine = jit::Jit::new(&fused, jit::JitConfig::default(), Some(&facts));
        (fused, engine)
    }

    #[test]
    fn interpreter_and_vm_agree() {
        for (name, src) in PROGRAMS {
            let a = run_source(src).unwrap_or_else(|e| panic!("interp {name}: {e}"));
            let b = run_source_vm(src).unwrap_or_else(|e| panic!("vm {name}: {e}"));
            assert_eq!(a, b, "tier mismatch on `{name}`");
            let c = run_source_vm_fused(src).unwrap_or_else(|e| panic!("fused {name}: {e}"));
            assert_eq!(a, c, "fused tier mismatch on `{name}`");
            let d = run_source_vm_jit(src).unwrap_or_else(|e| panic!("jit {name}: {e}"));
            assert_eq!(a, d, "jit tier mismatch on `{name}`");
        }
    }

    #[test]
    fn jit_fuel_accounting_is_bit_identical_to_fused() {
        // The JIT charges fuel per basic block with the same weights and
        // at the same transfer points as the fused VM, so for *every*
        // budget the two tiers agree exactly: same success, same value,
        // same typed error.
        for (name, src) in PROGRAMS {
            let (fused, engine) = jit_setup(src);
            for budget in (0..300).chain((300..5_000).step_by(97)) {
                let a = vm::Vm::with_fuel(budget).run(&fused);
                let b = vm::Vm::with_fuel(budget).run_jit(&fused, &engine);
                assert_eq!(a, b, "fuel divergence on `{name}` at budget {budget}");
            }
            let a = vm::Vm::with_fuel(1_000_000).run(&fused);
            let b = vm::Vm::with_fuel(1_000_000).run_jit(&fused, &engine);
            assert_eq!(a, b, "fuel divergence on `{name}` at budget 1000000");
            assert!(a.is_ok(), "`{name}` should finish within 1M fuel");
        }
    }

    #[test]
    fn jit_guard_failure_deoptimizes_correctly() {
        // A function first called with numbers compiles under Num entry
        // guards; a later call with strings fails the guard and
        // deoptimizes to the fused VM, with identical observable results.
        let src = r#"
            fn add(a, b) { return a + b; }
            let x = add(1, 2);
            let s = add("a", "b");
            s + "-done"
        "#;
        let expect = run_source(src).unwrap();
        assert_eq!(run_source_vm_jit(src).unwrap(), expect);
        let (fused, engine) = jit_setup(src);
        let got = vm::Vm::new().run_jit(&fused, &engine).unwrap();
        assert_eq!(got, expect);
        assert!(engine.stats().jit_calls() >= 1, "jit tier never ran");
        assert!(engine.stats().deopts() >= 1, "guard failure never deopted");
    }

    #[test]
    fn both_tiers_exhaust_fuel_identically() {
        // Step counting differs between tiers (statements vs instructions),
        // but the observable behaviour must match: the same typed error on
        // runaway programs, and identical results when the budget suffices.
        for src in [
            "while true { }",
            "while true { let x = 1; }",
            "fn spin() { while true { } } spin()",
        ] {
            let program = parser::parse(src).expect("parses");
            let a = interp::Interpreter::with_fuel(50_000)
                .run(&program)
                .unwrap_err();
            let compiled = bytecode::compile(&program).expect("compiles");
            let b = vm::Vm::with_fuel(50_000).run(&compiled).unwrap_err();
            assert!(
                matches!(a, Error::FuelExhausted { budget: 50_000 }),
                "interp `{src}`: {a}"
            );
            assert_eq!(a, b, "tier mismatch on `{src}`");
            // The fused VM charges fuel per basic block, but the guarantee
            // is identical: runaway programs fail with the same error.
            let fused = peephole::optimize(&compiled);
            let c = vm::Vm::with_fuel(50_000).run(&fused).unwrap_err();
            assert_eq!(a, c, "fused tier mismatch on `{src}`");
            let (jfused, engine) = jit_setup(src);
            let d = vm::Vm::with_fuel(50_000)
                .run_jit(&jfused, &engine)
                .unwrap_err();
            assert_eq!(a, d, "jit tier mismatch on `{src}`");
        }
        for (name, src) in PROGRAMS {
            let program = parser::parse(src).expect("parses");
            let a = interp::Interpreter::with_fuel(1_000_000).run(&program);
            let compiled = bytecode::compile(&program).expect("compiles");
            let b = vm::Vm::with_fuel(1_000_000).run(&compiled);
            assert_eq!(a, b, "fueled tier mismatch on `{name}`");
            let fused = peephole::optimize(&compiled);
            let c = vm::Vm::with_fuel(1_000_000).run(&fused);
            assert_eq!(b, c, "fueled fused tier mismatch on `{name}`");
            let (jfused, engine) = jit_setup(src);
            let d = vm::Vm::with_fuel(1_000_000).run_jit(&jfused, &engine);
            assert_eq!(b, d, "fueled jit tier mismatch on `{name}`");
            assert_eq!(
                a.unwrap(),
                run_source(src).unwrap(),
                "fuel changed `{name}`"
            );
        }
    }

    #[test]
    fn both_tiers_exhaust_memory_identically() {
        // Memory accounting charges at the same semantic construction points
        // in every tier, so — unlike fuel — the byte totals are *identical*:
        // a budget one byte short fails everywhere with the same typed
        // error, and the exact budget succeeds everywhere.
        const CASES: &[(&str, u64)] = &[
            // One big builtin allocation: 1000 floats.
            ("let a = zeros(1000); len(a)", 8_000),
            // Cumulative small builtin allocations.
            (
                "let i = 0; while i < 50 { let a = zeros(100); i = i + 1; } i",
                50 * 800,
            ),
            // String concatenation charges each intermediate result:
            // 8 + 16 + ... + 256 bytes.
            (
                "let s = \"\"; let i = 0; while i < 32 { s = s + \"abcdefgh\"; i = i + 1; } len(s)",
                4_224,
            ),
            // Array literals: 16 bytes per boxed element.
            (
                "let i = 0; while i < 100 { let a = [i, i, i]; i = i + 1; } i",
                100 * 48,
            ),
        ];
        for (src, cost) in CASES {
            let program = parser::parse(src).expect("parses");
            let compiled = bytecode::compile(&program).expect("compiles");
            let fused = peephole::optimize(&compiled);
            // One byte short: every tier fails with the same typed error.
            let short = Some(cost - 1);
            let a = interp::Interpreter::with_limits(None, short)
                .run(&program)
                .unwrap_err();
            assert!(
                matches!(a, Error::MemoryExhausted { .. }),
                "interp `{src}`: {a}"
            );
            let b = vm::Vm::with_limits(None, short).run(&compiled).unwrap_err();
            assert_eq!(a, b, "tier mismatch on `{src}`");
            let c = vm::Vm::with_limits(None, short).run(&fused).unwrap_err();
            assert_eq!(a, c, "fused tier mismatch on `{src}`");
            let (jfused, engine) = jit_setup(src);
            let d = vm::Vm::with_limits(None, short)
                .run_jit(&jfused, &engine)
                .unwrap_err();
            assert_eq!(a, d, "jit tier mismatch on `{src}`");
            // The exact budget suffices on every tier, with results
            // untouched.
            let expect = run_source(src).unwrap();
            let exact = Some(*cost);
            assert_eq!(
                interp::Interpreter::with_limits(None, exact)
                    .run(&program)
                    .unwrap(),
                expect,
                "memory budget changed interp `{src}`"
            );
            assert_eq!(
                vm::Vm::with_limits(None, exact).run(&compiled).unwrap(),
                expect,
                "memory budget changed vm `{src}`"
            );
            assert_eq!(
                vm::Vm::with_limits(None, exact).run(&fused).unwrap(),
                expect,
                "memory budget changed fused vm `{src}`"
            );
            assert_eq!(
                vm::Vm::with_limits(None, exact)
                    .run_jit(&jfused, &engine)
                    .unwrap(),
                expect,
                "memory budget changed jit vm `{src}`"
            );
        }
        // Fuel and memory are independent limits: whichever runs out first
        // decides the error.
        let program = parser::parse("let i = 0; while i < 1000 { i = i + 1; } i").expect("parses");
        let err = interp::Interpreter::with_limits(Some(10), Some(1 << 20))
            .run(&program)
            .unwrap_err();
        assert!(matches!(err, Error::FuelExhausted { .. }), "{err}");
        let compiled = bytecode::compile(&program).expect("compiles");
        let err = vm::Vm::with_limits(Some(10), Some(1 << 20))
            .run(&compiled)
            .unwrap_err();
        assert!(matches!(err, Error::FuelExhausted { .. }), "{err}");
    }

    #[test]
    fn both_tiers_report_same_class_of_runtime_errors() {
        for src in [
            "undefined_var + 1",
            "let a = [1]; a[5]",
            "1 + \"x\"",
            "fn f(a) { return a; } f(1, 2)",
            "nosuchfn(1)",
            "let a = 5; a[0]",
        ] {
            let a = run_source(src);
            let b = run_source_vm(src);
            assert!(a.is_err(), "interp should fail on `{src}`");
            assert!(b.is_err(), "vm should fail on `{src}`");
            assert!(
                run_source_vm_fused(src).is_err(),
                "fused vm should fail on `{src}`"
            );
            assert!(
                run_source_vm_jit(src).is_err(),
                "jit vm should fail on `{src}`"
            );
        }
    }
}

/// Lints `src` and returns its findings as `(code, line)` pairs.
#[cfg(test)]
fn lint_findings(src: &str) -> Vec<(diagnostics::Code, u32)> {
    lint::lint_source(src)
        .expect("test programs parse")
        .iter()
        .map(|d| (d.code, d.line))
        .collect()
}

/// Control-flow facts of the [`lint`] region walk (reachable chains, loop
/// exits, dead code after a jump, loop-variable scoping, unresolved names),
/// checked through the findings they produce.
#[cfg(test)]
mod cfg {
    mod tests {
        use crate::diagnostics::Code;
        use crate::lint::lint_source;
        use crate::lint_findings;

        #[test]
        fn straight_line_code_is_one_reachable_chain() {
            // Each read follows its binding's write, so nothing is
            // unresolved, unread or dead.
            assert_eq!(lint_findings("let a = 1; let b = a + 2; b"), vec![]);
        }

        #[test]
        fn code_after_return_lands_in_a_predecessor_free_block() {
            // The dead `let` and the dead read of it form one unreachable
            // stretch, reported once at its first line.
            assert_eq!(
                lint_findings("fn f() {\n return 1;\n let dead = 2;\n dead;\n}\nf()"),
                vec![(Code::UnreachableCode, 3)]
            );
        }

        #[test]
        fn while_loop_edges_allow_zero_and_many_iterations() {
            // The loop body and the code after the loop are both live.
            assert_eq!(
                lint_findings("let i = 0;\nwhile i < 3 { i = i + 1; }\ni"),
                vec![]
            );
        }

        #[test]
        fn break_reaches_loop_exit() {
            // `break` leaves `while true`: the statement after the loop is
            // live and the condition is not reported as a hang.
            assert_eq!(lint_findings("while true { break; }\n1"), vec![]);
        }

        #[test]
        fn loop_variable_scoping_and_shadowing() {
            // The loop variable shadows the outer `i`; the final read goes
            // to the outer one again, so neither is unread.
            assert_eq!(
                lint_findings("let i = 5;\nfor i in range(0, 3) { i; }\ni"),
                vec![(Code::Shadowing, 2)]
            );
        }

        #[test]
        fn unresolved_reads_and_writes_are_recorded() {
            let ds = lint_source("ghost;\nghost = 1;").expect("parses");
            let got: Vec<(Code, u32, &str)> = ds
                .iter()
                .map(|d| (d.code, d.line, d.message.as_str()))
                .collect();
            assert_eq!(
                got,
                vec![
                    (Code::UndefinedVariable, 1, "undefined variable `ghost`"),
                    (
                        Code::UndefinedVariable,
                        2,
                        "assignment to undefined variable `ghost`"
                    ),
                ]
            );
        }
    }
}

/// Reachability and definite-assignment facts of the [`lint`] region walk,
/// checked through the findings they produce.
#[cfg(test)]
mod dataflow {
    mod tests {
        use crate::diagnostics::Code;
        use crate::lint_findings;

        fn dead_lines(src: &str) -> Vec<u32> {
            lint_findings(src)
                .into_iter()
                .filter(|(code, _)| *code == Code::UnreachableCode)
                .map(|(_, line)| line)
                .collect()
        }

        #[test]
        fn fully_reachable_program_has_no_dead_frontier() {
            assert_eq!(
                dead_lines("let a = 1; if a { a; } else { a + 1; } a"),
                Vec::<u32>::new()
            );
        }

        #[test]
        fn code_after_return_is_a_single_frontier() {
            // Lines 3 and 4 are both dead but form one stretch: one report.
            assert_eq!(
                dead_lines("fn f() {\n  return 1;\n  let a = 2;\n  a + 1;\n}\nf()"),
                vec![3]
            );
        }

        #[test]
        fn code_after_break_is_dead() {
            assert_eq!(dead_lines("while true {\n  break;\n  1 + 1;\n}"), vec![3]);
        }

        #[test]
        fn loops_and_branches_keep_definite_assignment_clean() {
            for src in [
                "let s = 0; for i in range(0, 3) { s = s + i; } s",
                "let x = 1; if x > 0 { x = 2; } else { x = 3; } x",
                "let i = 0; while i < 5 { i = i + 1; } i",
                "let a = 1; { let b = a + 1; b; } a",
            ] {
                let unassigned: Vec<_> = lint_findings(src)
                    .into_iter()
                    .filter(|(code, _)| {
                        matches!(code, Code::UndefinedVariable | Code::UseBeforeAssignment)
                    })
                    .collect();
                assert_eq!(unassigned, vec![], "{src}");
            }
        }

        #[test]
        fn params_are_assigned_at_entry() {
            assert_eq!(
                lint_findings("fn f(a, b) { return a + b; } f(1, 2)"),
                vec![]
            );
        }

        #[test]
        fn scope_exit_kills_bindings() {
            assert_eq!(lint_findings("let a = 1; { let b = 2; b; } a"), vec![]);
            // After the block `b` is gone: a later read is use-before-binding.
            assert_eq!(
                lint_findings("let a = 1; { let b = 2; b; }\nb + a"),
                vec![(Code::UseBeforeAssignment, 2)]
            );
        }
    }
}

/// Name resolution in the [`lint`] region walk (innermost binding,
/// redeclaration, bindings of closed scopes, symbol kinds), checked through
/// the findings it produces.
#[cfg(test)]
mod resolve {
    mod tests {
        use crate::diagnostics::Code;
        use crate::lint::lint_source;
        use crate::lint_findings;

        #[test]
        fn resolve_finds_innermost_binding() {
            // The read inside the block resolves to the inner `x`, leaving
            // the outer one unread.
            assert_eq!(
                lint_findings("let x = 1;\n{ let x = 2; x; }"),
                vec![(Code::Unused, 1), (Code::Shadowing, 2)]
            );
            // Once the block closes, the outer `x` is visible again, so the
            // inner one is the unread binding.
            assert_eq!(
                lint_findings("let x = 1;\n{ let x = 2; }\nx"),
                vec![(Code::Unused, 2), (Code::Shadowing, 2)]
            );
        }

        #[test]
        fn same_scope_redeclaration_shadows() {
            // The read resolves to the second `v`, so the first is unread.
            assert_eq!(
                lint_findings("let v = 1;\nlet v = 2;\nv"),
                vec![(Code::Unused, 1), (Code::Shadowing, 2)]
            );
        }

        #[test]
        fn declared_anywhere_sees_retired_symbols() {
            assert_eq!(
                lint_findings("{ let gone = 1; gone; }\ngone"),
                vec![(Code::UseBeforeAssignment, 2)]
            );
            assert_eq!(
                lint_findings("{ let gone = 1; gone; }\nnever"),
                vec![(Code::UndefinedVariable, 2)]
            );
        }

        #[test]
        fn params_and_loop_vars_carry_their_kind() {
            // An unread parameter and an unread variable are named by kind;
            // the unread loop variable `i` is exempt.
            let ds = lint_source(
                "fn f(n) {\n let m = 1;\n for i in range(0, 2) { }\n return 0;\n}\nf(1)",
            )
            .expect("parses");
            let msgs: Vec<&str> = ds.iter().map(|d| d.message.as_str()).collect();
            assert_eq!(
                msgs,
                vec!["parameter `n` is never read", "variable `m` is never read"]
            );
        }
    }
}
