//! AST-level optimizer: constant folding and dead-branch elimination.
//!
//! Runs between parsing and either execution tier. Semantics-preserving by
//! construction: folding only applies operators to literals using the exact
//! runtime semantics in [`crate::value::binop`], and expressions that would
//! error at runtime (e.g. `1/0`) are left unfolded so the error still
//! surfaces at the same point. Source lines are preserved: a folded literal
//! keeps the line of the expression it replaced, so diagnostics on optimized
//! code still point at the original source.

use crate::ast::{Block, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};
use crate::value::{binop, Value};

/// Optimizes a whole program (functions and main body).
pub fn optimize(program: &Program) -> Program {
    Program {
        functions: program
            .functions
            .iter()
            .map(|f| {
                std::sync::Arc::new(FnDef {
                    name: f.name.clone(),
                    params: f.params.clone(),
                    body: optimize_block(&f.body),
                    line: f.line,
                })
            })
            .collect(),
        main: optimize_block(&program.main),
    }
}

fn optimize_block(block: &Block) -> Block {
    block.iter().flat_map(optimize_stmt).collect()
}

/// Optimizes one statement; may expand to zero statements (dead branch) or
/// several (a surviving branch's body is inlined only when scope-safe —
/// i.e. never, since blocks scope; we keep the block).
fn optimize_stmt(stmt: &Stmt) -> Vec<Stmt> {
    let line = stmt.line;
    match &stmt.kind {
        StmtKind::Let { name, init } => {
            vec![Stmt::new(
                StmtKind::Let {
                    name: name.clone(),
                    init: fold(init),
                },
                line,
            )]
        }
        StmtKind::Assign { name, value } => {
            vec![Stmt::new(
                StmtKind::Assign {
                    name: name.clone(),
                    value: fold(value),
                },
                line,
            )]
        }
        StmtKind::IndexAssign { base, index, value } => vec![Stmt::new(
            StmtKind::IndexAssign {
                base: fold(base),
                index: fold(index),
                value: fold(value),
            },
            line,
        )],
        StmtKind::Expr(e) => vec![Stmt::new(StmtKind::Expr(fold(e)), line)],
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            let cond = fold(cond);
            // Dead-branch elimination when the condition folded to a literal.
            match literal_truthiness(&cond) {
                Some(true) => vec![Stmt::new(StmtKind::Block(optimize_block(then_block)), line)],
                Some(false) => {
                    if else_block.is_empty() {
                        Vec::new()
                    } else {
                        vec![Stmt::new(StmtKind::Block(optimize_block(else_block)), line)]
                    }
                }
                None => vec![Stmt::new(
                    StmtKind::If {
                        cond,
                        then_block: optimize_block(then_block),
                        else_block: optimize_block(else_block),
                    },
                    line,
                )],
            }
        }
        StmtKind::While { cond, body } => {
            let cond = fold(cond);
            if literal_truthiness(&cond) == Some(false) {
                // `while false` never runs.
                return Vec::new();
            }
            vec![Stmt::new(
                StmtKind::While {
                    cond,
                    body: optimize_block(body),
                },
                line,
            )]
        }
        StmtKind::ForRange {
            var,
            start,
            end,
            body,
        } => vec![Stmt::new(
            StmtKind::ForRange {
                var: var.clone(),
                start: fold(start),
                end: fold(end),
                body: optimize_block(body),
            },
            line,
        )],
        StmtKind::Return(v) => vec![Stmt::new(StmtKind::Return(v.as_ref().map(fold)), line)],
        StmtKind::Break => vec![Stmt::new(StmtKind::Break, line)],
        StmtKind::Continue => vec![Stmt::new(StmtKind::Continue, line)],
        StmtKind::Block(b) => {
            let b = optimize_block(b);
            if b.is_empty() {
                Vec::new()
            } else {
                vec![Stmt::new(StmtKind::Block(b), line)]
            }
        }
    }
}

/// Truthiness of a literal expression, `None` for non-literals.
fn literal_truthiness(e: &Expr) -> Option<bool> {
    match &e.kind {
        ExprKind::Num(_) | ExprKind::Str(_) => Some(true),
        ExprKind::Bool(b) => Some(*b),
        ExprKind::Nil => Some(false),
        _ => None,
    }
}

/// Converts a literal expression to a runtime value, when it is one.
fn as_literal(e: &Expr) -> Option<Value> {
    match &e.kind {
        ExprKind::Num(n) => Some(Value::Num(*n)),
        ExprKind::Str(s) => Some(Value::str(s)),
        ExprKind::Bool(b) => Some(Value::Bool(*b)),
        ExprKind::Nil => Some(Value::Nil),
        _ => None,
    }
}

/// Converts a folded runtime value back to a literal expression shape, when
/// the value kind has a literal form.
fn to_literal(v: Value) -> Option<ExprKind> {
    match v {
        Value::Num(n) => Some(ExprKind::Num(n)),
        Value::Str(s) => Some(ExprKind::Str(s.to_string())),
        Value::Bool(b) => Some(ExprKind::Bool(b)),
        Value::Nil => Some(ExprKind::Nil),
        _ => None,
    }
}

/// Recursively folds constants inside an expression. The result keeps the
/// source line of the expression it replaces.
pub fn fold(e: &Expr) -> Expr {
    let line = e.line;
    match &e.kind {
        ExprKind::Num(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Nil
        | ExprKind::Var(_) => e.clone(),
        ExprKind::Array(elems) => {
            Expr::new(ExprKind::Array(elems.iter().map(fold).collect()), line)
        }
        ExprKind::Bin { op, lhs, rhs } => {
            let l = fold(lhs);
            let r = fold(rhs);
            if let (Some(lv), Some(rv)) = (as_literal(&l), as_literal(&r)) {
                // Only fold when the operation succeeds; runtime errors
                // (division by zero, type mismatch) must stay runtime.
                if let Ok(v) = binop(*op, &lv, &rv) {
                    if let Some(lit) = to_literal(v) {
                        return Expr::new(lit, line);
                    }
                }
            }
            Expr::new(
                ExprKind::Bin {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
                line,
            )
        }
        ExprKind::And(l, r) => {
            let l = fold(l);
            match literal_truthiness(&l) {
                // `false and X` -> the lhs value (short-circuit semantics).
                Some(false) => l,
                // `true and X` -> X.
                Some(true) => fold(r),
                None => Expr::new(ExprKind::And(Box::new(l), Box::new(fold(r))), line),
            }
        }
        ExprKind::Or(l, r) => {
            let l = fold(l);
            match literal_truthiness(&l) {
                Some(true) => l,
                Some(false) => fold(r),
                None => Expr::new(ExprKind::Or(Box::new(l), Box::new(fold(r))), line),
            }
        }
        ExprKind::Un { op, expr } => {
            let inner = fold(expr);
            if let Some(v) = as_literal(&inner) {
                let folded = match op {
                    UnOp::Neg => v.as_num("fold").map(|n| ExprKind::Num(-n)).ok(),
                    UnOp::Not => Some(ExprKind::Bool(!v.truthy())),
                };
                if let Some(lit) = folded {
                    return Expr::new(lit, line);
                }
            }
            Expr::new(
                ExprKind::Un {
                    op: *op,
                    expr: Box::new(inner),
                },
                line,
            )
        }
        ExprKind::Index { base, index } => Expr::new(
            ExprKind::Index {
                base: Box::new(fold(base)),
                index: Box::new(fold(index)),
            },
            line,
        ),
        ExprKind::Call { name, args } => Expr::new(
            ExprKind::Call {
                name: name.clone(),
                args: args.iter().map(fold).collect(),
            },
            line,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::{bytecode, interp::Interpreter, vm::Vm};

    fn run_both_ways(src: &str) {
        let program = parse(src).expect("test programs parse");
        let optimized = optimize(&program);
        let plain = Interpreter::new().run(&program);
        let opt = Interpreter::new().run(&optimized);
        assert_eq!(plain, opt, "interp semantics changed by optimizer: {src}");
        let plain_vm = bytecode::compile(&program).and_then(|c| Vm::new().run(&c));
        let opt_vm = bytecode::compile(&optimized).and_then(|c| Vm::new().run(&c));
        match (&plain_vm, &opt_vm) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "vm semantics changed: {src}"),
            (Err(_), Err(_)) => {}
            other => panic!("vm error behaviour changed on {src}: {other:?}"),
        }
    }

    #[test]
    fn folds_arithmetic_chains() {
        let p = parse("let x = 1 + 2 * 3 - 4;").unwrap();
        let o = optimize(&p);
        assert_eq!(
            o.main[0].kind,
            StmtKind::Let {
                name: "x".into(),
                init: Expr::new(ExprKind::Num(3.0), 1)
            }
        );
    }

    #[test]
    fn folds_strings_comparisons_and_unaries() {
        let o = optimize(&parse("\"a\" + \"b\"").unwrap());
        assert_eq!(
            o.main[0].kind,
            StmtKind::Expr(Expr::new(ExprKind::Str("ab".into()), 1))
        );
        let o = optimize(&parse("2 < 3").unwrap());
        assert_eq!(
            o.main[0].kind,
            StmtKind::Expr(Expr::new(ExprKind::Bool(true), 1))
        );
        let o = optimize(&parse("-(2 + 3)").unwrap());
        assert_eq!(
            o.main[0].kind,
            StmtKind::Expr(Expr::new(ExprKind::Num(-5.0), 1))
        );
        let o = optimize(&parse("not nil").unwrap());
        assert_eq!(
            o.main[0].kind,
            StmtKind::Expr(Expr::new(ExprKind::Bool(true), 1))
        );
    }

    #[test]
    fn division_by_zero_not_folded_away() {
        let p = parse("1 / 0").unwrap();
        let o = optimize(&p);
        // Must remain a Bin so the runtime error still happens.
        assert!(matches!(
            o.main[0].kind,
            StmtKind::Expr(Expr {
                kind: ExprKind::Bin { .. },
                ..
            })
        ));
        assert!(Interpreter::new().run(&o).is_err());
    }

    #[test]
    fn short_circuit_folding_respects_value_semantics() {
        // `3 and x` -> x; `nil and x` -> nil; `3 or x` -> 3.
        let o = optimize(&parse("let y = 1; 3 and y").unwrap());
        assert_eq!(
            o.main[1].kind,
            StmtKind::Expr(Expr::new(ExprKind::Var("y".into()), 1))
        );
        let o = optimize(&parse("let y = 1; nil and y").unwrap());
        assert_eq!(o.main[1].kind, StmtKind::Expr(Expr::new(ExprKind::Nil, 1)));
        let o = optimize(&parse("let y = 1; 3 or y").unwrap());
        assert_eq!(
            o.main[1].kind,
            StmtKind::Expr(Expr::new(ExprKind::Num(3.0), 1))
        );
    }

    #[test]
    fn dead_branches_eliminated() {
        let o = optimize(&parse("if true { 1; } else { 2; }").unwrap());
        assert_eq!(o.main.len(), 1);
        assert!(matches!(&o.main[0].kind, StmtKind::Block(b) if b.len() == 1));
        let o = optimize(&parse("if false { 1; }").unwrap());
        assert!(o.main.is_empty());
        let o = optimize(&parse("if 1 < 2 { 1; } else { 2; }").unwrap());
        assert!(matches!(
            &o.main[0].kind,
            StmtKind::Block(b)
                if matches!(b[0].kind, StmtKind::Expr(Expr { kind: ExprKind::Num(n), .. }) if n == 1.0)
        ));
        let o = optimize(&parse("while false { 1; }").unwrap());
        assert!(o.main.is_empty());
    }

    #[test]
    fn non_constant_conditions_survive() {
        let o = optimize(&parse("let x = 1; if x { 1; }").unwrap());
        assert!(matches!(o.main[1].kind, StmtKind::If { .. }));
        let o = optimize(&parse("let x = 1; while x < 10 { x = x + 1; }").unwrap());
        assert!(matches!(o.main[1].kind, StmtKind::While { .. }));
    }

    #[test]
    fn folding_reaches_inside_everything() {
        let src = "fn f(a) { if a > 1 + 1 { return 2 * 3; } return [1 + 1, 2 + 2][0]; } f(5)";
        let o = optimize(&parse(src).unwrap());
        let f = &o.functions[0];
        // `1 + 1` in the condition folded to 2.
        match &f.body[0].kind {
            StmtKind::If {
                cond:
                    Expr {
                        kind: ExprKind::Bin { rhs, .. },
                        ..
                    },
                then_block,
                ..
            } => {
                assert_eq!(rhs.kind, ExprKind::Num(2.0));
                match &then_block[0].kind {
                    StmtKind::Return(Some(v)) => assert_eq!(v.kind, ExprKind::Num(6.0)),
                    other => panic!("unexpected shape: {other:?}"),
                }
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn folding_preserves_source_lines() {
        // A fold on line 2 keeps line 2, so diagnostics on optimized code
        // still point at the source.
        let o = optimize(&parse("let a = 1;\nlet b = 2 + 3;").unwrap());
        match &o.main[1].kind {
            StmtKind::Let { init, .. } => {
                assert_eq!(init.kind, ExprKind::Num(5.0));
                assert_eq!(init.line, 2);
            }
            other => panic!("unexpected shape: {other:?}"),
        }
        assert_eq!(o.main[1].line, 2);
    }

    #[test]
    fn semantics_preserved_on_program_corpus() {
        for src in [
            "let s = 0; for i in range(0, 2 + 3) { s = s + i * (1 + 1); } s",
            "fn fib(n) { if n < 1 + 1 { return n; } return fib(n-1) + fib(n-2); } fib(10)",
            "let a = [1 + 1, 2 * 2]; a[0] + a[1]",
            "if 2 > 3 { 1 } else { 0 - 1 }",
            "let x = 5; x and 2 + 2",
            "\"a\" + \"b\" == \"ab\"",
            "let i = 0; while true { i = i + 1; if i >= 3 { break; } } i",
            "1 / 0",
            "undefined + 1",
        ] {
            run_both_ways(src);
        }
    }
}
