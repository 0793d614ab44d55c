//! The ResearchScript linter: one scoped walk per region (the top level,
//! or one function body) yields the classic findings `W001`–`W007` and
//! `W013`; the abstract interpreter ([`crate::absint`]) adds the semantic
//! ones `W008`–`W012`.
//!
//! Entry points: [`lint`] on a parsed [`Program`], or [`lint_source`]
//! straight from source text. Diagnostics come back sorted by line then
//! code — the order `rsc --check` prints them.
//!
//! | Code | Name | Example trigger |
//! |------|------|-----------------|
//! | W001 | undefined-variable | `let a = 1; a + typo` |
//! | W002 | use-before-assignment | `acc = acc + 1; let acc = 0;` |
//! | W003 | unused | `let x = 1;` with `x` never read |
//! | W004 | unreachable-code | `return 1; let a = 2;` |
//! | W005 | constant-condition | `if 1 < 2 { }` / `while true { }` with no `break` |
//! | W006 | arity-mismatch | `sqrt(1, 2)` |
//! | W007 | shadowing | `let x = 1; { let x = 2; }` |
//! | W008 | division-by-zero | `n / 0` |
//! | W013 | jump-outside-loop | `fn f(x) { if x { break; } return x; }` |
//!
//! Every construct nests and there is no `goto`, so reachability needs no
//! control-flow graph. A statement *cannot complete normally* when it is
//! a `return`, `break` or `continue`; an `if` with an `else` whose
//! branches both cannot; or a `{ }` block holding such a statement. Loops
//! always complete (a constant loop condition is W005's finding, not
//! dead code). The statement after one that cannot complete starts a dead
//! stretch: it gets one W004, and the walk's `live` flag stays down until
//! the enclosing branch or loop body ends. Every `let` has an initializer,
//! so a name in scope is always assigned; resolution against the scope
//! stack is the whole use-before-assignment story. A loop-depth count,
//! reset per region, finds the `break` or `continue` with no loop to leave,
//! live or dead, which the bytecode compiler rejects.

use std::collections::{BTreeSet, HashMap};

use crate::ast::{Block, Expr, ExprKind, Program, Stmt, StmtKind};
use crate::builtins;
use crate::diagnostics::{Code, Diagnostic};
use crate::error::Result;
use crate::optimize::fold;
use crate::parser::parse;

/// Lints source text: parse, then [`lint`].
///
/// # Errors
/// Lexer/parser errors (lint findings are *not* errors — they come back in
/// the `Ok` vector).
pub fn lint_source(src: &str) -> Result<Vec<Diagnostic>> {
    Ok(lint(&parse(src)?))
}

/// Lints a parsed program, returning diagnostics sorted by line, then code.
///
/// Runs a fresh abstract-interpretation pass for the semantic findings;
/// callers that already hold an [`crate::absint::Analysis`] (the `rsc`
/// driver shares one pass between linting, fact rendering, peephole
/// fusion, and JIT compilation) should use [`lint_with_analysis`].
pub fn lint(program: &Program) -> Vec<Diagnostic> {
    lint_with_analysis(program, &crate::absint::analyze(program))
}

/// Like [`lint`], but reuses an existing abstract-interpretation result
/// instead of recomputing the fixpoint.
pub fn lint_with_analysis(
    program: &Program,
    analysis: &crate::absint::Analysis,
) -> Vec<Diagnostic> {
    let mut l = Linter {
        fns: program
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.params.len()))
            .collect(),
        called: BTreeSet::new(),
        out: Vec::new(),
        symbols: Vec::new(),
        visible: Vec::new(),
        unresolved_reads: BTreeSet::new(),
        unresolved_writes: Vec::new(),
        live: true,
        loops: 0,
    };
    l.region(&[], 0, &program.main);
    for f in &program.functions {
        l.region(&f.params, f.line, &f.body);
    }

    // W003 for whole functions: defined but never called.
    for f in &program.functions {
        if !f.name.starts_with('_') && !l.called.contains(f.name.as_str()) {
            l.out.push(Diagnostic::new(
                Code::Unused,
                f.line,
                format!("function `{}` is never called", f.name),
            ));
        }
    }

    let mut out = l.out;
    // Semantic findings (W008–W012) from the abstract-interpretation
    // fixpoint join the walk's findings.
    out.extend(analysis.diagnostics.iter().cloned());
    out.sort();
    out.dedup_by(|a, b| a.line == b.line && a.code == b.code && a.message == b.message);
    out
}

/// What introduced a binding.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Param,
    Local,
    LoopVar,
}

/// One binding of a region.
struct Symbol<'p> {
    name: &'p str,
    kind: Kind,
    line: u32,
    /// Read anywhere in the region, dead code included.
    read: bool,
}

struct Linter<'p> {
    /// User function name → arity.
    fns: HashMap<&'p str, usize>,
    /// Function names called anywhere in the program.
    called: BTreeSet<&'p str>,
    out: Vec<Diagnostic>,

    // ---- per-region state, reset by `region` ----
    /// Every binding declared in the region, in declaration order.
    symbols: Vec<Symbol<'p>>,
    /// Indices into `symbols` of the bindings in scope, innermost last.
    visible: Vec<usize>,
    /// Live reads of names with no binding in scope.
    unresolved_reads: BTreeSet<(&'p str, u32)>,
    /// Live writes to names with no binding in scope.
    unresolved_writes: Vec<(&'p str, u32)>,
    /// False inside a dead stretch that already has its W004.
    live: bool,
    /// Loops enclosing the statement being walked.
    loops: usize,
}

impl<'p> Linter<'p> {
    fn warn(&mut self, code: Code, line: u32, message: impl Into<String>) {
        self.out.push(Diagnostic::new(code, line, message));
    }

    /// Walks one region: `params` (declared on `line`) sit in a scope
    /// outside `body`. Name findings are judged once the whole region has
    /// been seen, since a binding anywhere in it turns W001 into W002.
    fn region(&mut self, params: &'p [String], line: u32, body: &'p Block) {
        self.symbols.clear();
        self.visible.clear();
        self.live = true;
        self.loops = 0;
        for p in params {
            self.declare(p, Kind::Param, line);
        }
        self.walk_block(body);

        let reads = std::mem::take(&mut self.unresolved_reads);
        let writes = std::mem::take(&mut self.unresolved_writes);
        for &(name, line) in &reads {
            self.unresolved(name, line, false);
        }
        // A read on the same line already told the story of a write
        // (`acc = acc + 1` with the `let` dropped).
        for &(name, line) in writes.iter().filter(|w| !reads.contains(w)) {
            self.unresolved(name, line, true);
        }

        // W003: bindings never read. Loop variables are exempt (an unused
        // index is idiomatic), as is anything spelled with a `_` prefix.
        for s in &self.symbols {
            if s.read || s.name.starts_with('_') || s.kind == Kind::LoopVar {
                continue;
            }
            let what = if s.kind == Kind::Param {
                "parameter"
            } else {
                "variable"
            };
            self.out.push(Diagnostic::new(
                Code::Unused,
                s.line,
                format!("{what} `{}` is never read", s.name),
            ));
        }
    }

    /// Judges a live read or write of `name` with no binding in scope:
    /// W002 when the region binds it anywhere, in scope or not (a dropped
    /// `let`), W001 when it binds it nowhere (a typo).
    fn unresolved(&mut self, name: &str, line: u32, write: bool) {
        let declared = self.symbols.iter().any(|s| s.name == name);
        let (code, message) = match (declared, write) {
            (true, false) => (
                Code::UseBeforeAssignment,
                format!("`{name}` is used before any binding for it is in scope"),
            ),
            (true, true) => (
                Code::UseBeforeAssignment,
                format!("`{name}` is assigned before any binding for it is in scope"),
            ),
            (false, false) => (
                Code::UndefinedVariable,
                format!("undefined variable `{name}`"),
            ),
            (false, true) => (
                Code::UndefinedVariable,
                format!("assignment to undefined variable `{name}`"),
            ),
        };
        self.warn(code, line, message);
    }

    /// The innermost binding of `name` in scope.
    fn resolve(&self, name: &str) -> Option<usize> {
        self.visible
            .iter()
            .rev()
            .copied()
            .find(|&i| self.symbols[i].name == name)
    }

    /// Binds `name` in the innermost scope (W007 when it hides a binding).
    fn declare(&mut self, name: &'p str, kind: Kind, line: u32) {
        if let Some(old) = self.resolve(name) {
            let shadowed = self.symbols[old].line;
            self.warn(
                Code::Shadowing,
                line,
                format!("`{name}` shadows the binding declared on line {shadowed}"),
            );
        }
        self.visible.push(self.symbols.len());
        self.symbols.push(Symbol {
            name,
            kind,
            line,
            read: false,
        });
    }

    /// Walks `block` in its own scope and returns whether it can complete
    /// normally.
    fn walk_block(&mut self, block: &'p Block) -> bool {
        let scope = self.visible.len();
        let mut completes = true;
        for s in block {
            if !completes && self.live {
                self.warn(
                    Code::UnreachableCode,
                    s.line,
                    "unreachable code (control flow never arrives here)",
                );
                self.live = false;
            }
            completes &= self.walk_stmt(s);
        }
        self.visible.truncate(scope);
        completes
    }

    /// Walks a branch or loop body: a dead stretch inside it ends with it.
    fn walk_nested(&mut self, block: &'p Block) -> bool {
        let live = self.live;
        let completes = self.walk_block(block);
        self.live = live;
        completes
    }

    /// Walks a loop body, inside which `break` and `continue` have a loop
    /// to leave.
    fn walk_loop_body(&mut self, body: &'p Block) {
        self.loops += 1;
        self.walk_nested(body);
        self.loops -= 1;
    }

    /// Walks one statement and returns whether it can complete normally.
    fn walk_stmt(&mut self, stmt: &'p Stmt) -> bool {
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                // The initializer evaluates before the binding exists.
                self.walk_expr(init);
                self.declare(name, Kind::Local, stmt.line);
            }
            StmtKind::Assign { name, value } => {
                self.walk_expr(value);
                if self.resolve(name).is_none() && self.live {
                    self.unresolved_writes.push((name.as_str(), stmt.line));
                }
            }
            StmtKind::IndexAssign { base, index, value } => {
                self.walk_expr(base);
                self.walk_expr(index);
                self.walk_expr(value);
            }
            StmtKind::Expr(e) => self.walk_expr(e),
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.walk_expr(cond);
                if let Some(always) = folded_truthiness(cond) {
                    self.warn(
                        Code::ConstantCondition,
                        cond.line,
                        format!("condition is always {always}"),
                    );
                }
                // An absent `else` is an empty block, which completes.
                let then_completes = self.walk_nested(then_block);
                return self.walk_nested(else_block) || then_completes;
            }
            StmtKind::While { cond, body } => {
                self.walk_expr(cond);
                match folded_truthiness(cond) {
                    Some(true) if !contains_break(body) => self.warn(
                        Code::ConstantCondition,
                        cond.line,
                        "loop condition is always true and the loop has no `break`",
                    ),
                    // `while true { ... break ... }` is the idiomatic
                    // unbounded loop; leave it alone.
                    Some(true) => {}
                    Some(false) => self.warn(
                        Code::ConstantCondition,
                        cond.line,
                        "loop condition is always false; the body never runs",
                    ),
                    None => {}
                }
                self.walk_loop_body(body);
            }
            StmtKind::ForRange {
                var,
                start,
                end,
                body,
            } => {
                // Bounds evaluate once, before the loop variable exists;
                // the variable lives in a scope wrapping the body.
                self.walk_expr(start);
                self.walk_expr(end);
                let scope = self.visible.len();
                self.declare(var, Kind::LoopVar, stmt.line);
                self.walk_loop_body(body);
                self.visible.truncate(scope);
            }
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    self.walk_expr(e);
                }
                return false;
            }
            StmtKind::Break | StmtKind::Continue => {
                if self.loops == 0 {
                    let jump = if matches!(stmt.kind, StmtKind::Break) {
                        "break"
                    } else {
                        "continue"
                    };
                    self.warn(
                        Code::JumpOutsideLoop,
                        stmt.line,
                        format!("`{jump}` outside a loop"),
                    );
                }
                return false;
            }
            StmtKind::Block(b) => return self.walk_block(b),
        }
        true
    }

    fn walk_expr(&mut self, e: &'p Expr) {
        match &e.kind {
            ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Bool(_) | ExprKind::Nil => {}
            ExprKind::Var(name) => match self.resolve(name) {
                Some(i) => self.symbols[i].read = true,
                None if self.live => {
                    self.unresolved_reads.insert((name.as_str(), e.line));
                }
                None => {}
            },
            ExprKind::Array(elems) => {
                for el in elems {
                    self.walk_expr(el);
                }
            }
            ExprKind::Bin { lhs, rhs, .. } => {
                // W008 (division by zero) belongs to the abstract
                // interpreter, which proves the denominator zero through
                // the interval lattice instead of pattern-matching a literal.
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            ExprKind::And(l, r) | ExprKind::Or(l, r) => {
                self.walk_expr(l);
                self.walk_expr(r);
            }
            ExprKind::Un { expr, .. } => self.walk_expr(expr),
            ExprKind::Index { base, index } => {
                self.walk_expr(base);
                self.walk_expr(index);
            }
            ExprKind::Call { name, args } => {
                for a in args {
                    self.walk_expr(a);
                }
                self.called.insert(name.as_str());
                if let Some(&arity) = self.fns.get(name.as_str()) {
                    if args.len() != arity {
                        self.warn(
                            Code::ArityMismatch,
                            e.line,
                            format!(
                                "function `{name}` expects {arity} argument(s), got {}",
                                args.len()
                            ),
                        );
                    }
                } else if let Some(want) = builtins::arity_of(name) {
                    if let Some(want) = want {
                        if args.len() != want {
                            self.warn(
                                Code::ArityMismatch,
                                e.line,
                                format!(
                                    "builtin `{name}` expects {want} argument(s), got {}",
                                    args.len()
                                ),
                            );
                        }
                    }
                } else {
                    self.warn(
                        Code::UndefinedVariable,
                        e.line,
                        format!("call to undefined function `{name}`"),
                    );
                }
            }
        }
    }
}

/// Truthiness of a condition after constant folding, `None` when it still
/// depends on runtime values.
fn folded_truthiness(cond: &Expr) -> Option<bool> {
    match fold(cond).kind {
        ExprKind::Num(_) | ExprKind::Str(_) => Some(true),
        ExprKind::Bool(b) => Some(b),
        ExprKind::Nil => Some(false),
        _ => None,
    }
}

/// Whether a loop body contains a `break` belonging to *this* loop (nested
/// loops own their breaks).
fn contains_break(body: &Block) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Break => true,
        StmtKind::If {
            then_block,
            else_block,
            ..
        } => contains_break(then_block) || contains_break(else_block),
        StmtKind::Block(b) => contains_break(b),
        // A break inside a nested loop exits that loop, not this one.
        StmtKind::While { .. } | StmtKind::ForRange { .. } => false,
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        lint_source(src)
            .expect("parses")
            .iter()
            .map(|d| d.code.id())
            .collect()
    }

    fn findings(src: &str) -> Vec<(Code, u32)> {
        lint_source(src)
            .expect("parses")
            .iter()
            .map(|d| (d.code, d.line))
            .collect()
    }

    #[test]
    fn w001_undefined_variable() {
        let ds = lint_source("let a = 1;\na + typo").unwrap();
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::UndefinedVariable);
        assert_eq!(ds[0].line, 2);
        assert!(ds[0].message.contains("typo"));
        // Unknown function calls are W001 too.
        assert_eq!(codes("ghost(1)"), vec!["W001"]);
        // A read and a write are judged on their own lines ...
        let ds = lint_source("ghost;\nghost = 1;").unwrap();
        let found: Vec<_> = ds.iter().map(|d| (d.code, d.line)).collect();
        assert_eq!(
            found,
            vec![(Code::UndefinedVariable, 1), (Code::UndefinedVariable, 2)]
        );
        assert!(ds[1].message.contains("assignment"), "{ds:?}");
        // ... but on one line the read tells the story alone.
        assert_eq!(codes("ghost = ghost + 1;"), vec!["W001"]);
    }

    #[test]
    fn w002_use_before_assignment() {
        // The dropped-initialization shape: the `let` is gone, uses remain.
        let ds = lint_source("let n = 3;\nacc = acc + n;\nlet acc = 0;\nacc").unwrap();
        assert!(
            ds.iter()
                .any(|d| d.code == Code::UseBeforeAssignment && d.line == 2),
            "{ds:?}"
        );
        assert!(
            ds.iter().all(|d| d.code != Code::UndefinedVariable),
            "a later binding exists, so this is W002, not W001: {ds:?}"
        );
        // Sibling-scope escape is also W002: a binding in a closed scope
        // still counts as declared, a name bound nowhere does not.
        assert!(codes("if 1 < 0 { } let a = 1; { let b = a; b; } b").contains(&"W002"));
        assert_eq!(codes("{ let gone = 1; gone; }\ngone"), vec!["W002"]);
        assert_eq!(codes("{ let gone = 1; gone; }\nnever"), vec!["W001"]);
    }

    #[test]
    fn w003_unused_variable_param_function() {
        assert_eq!(codes("let unused = 5; let x = 1; x"), vec!["W003"]);
        let ds = lint_source("fn f(a, b) { return a; } f(1, 2)").unwrap();
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Unused);
        assert!(ds[0].message.contains("parameter `b`"));
        let ds = lint_source("fn helper(x) { return x; } 1 + 1").unwrap();
        assert!(
            ds.iter()
                .any(|d| d.code == Code::Unused && d.message.contains("function `helper`")),
            "{ds:?}"
        );
        // Underscore names and loop variables are exempt.
        assert!(codes("let _scratch = 1; 2").is_empty());
        assert!(codes("let s = 0; for i in range(0, 3) { s = s + 1; } s").is_empty());
        let ds =
            lint_source("fn f(n) { let m = 1; for i in range(0, 2) { } return 0; } f(1)").unwrap();
        let msgs: Vec<&str> = ds.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(
            msgs,
            vec!["parameter `n` is never read", "variable `m` is never read"]
        );
        // A read in dead code still counts as a read.
        assert_eq!(
            findings("fn f() {\n let a = 1;\n return 0;\n a;\n}\nf()"),
            vec![(Code::UnreachableCode, 4)]
        );
    }

    #[test]
    fn w004_unreachable_code() {
        let ds = lint_source("fn f() {\n  return 1;\n  let a = 2;\n  a;\n}\nf()").unwrap();
        let w4: Vec<_> = ds
            .iter()
            .filter(|d| d.code == Code::UnreachableCode)
            .collect();
        assert_eq!(w4.len(), 1, "one report per dead chain: {ds:?}");
        assert_eq!(w4[0].line, 3);
        assert!(codes("for i in range(0, 3) { continue; 1 + 1; }").contains(&"W004"));
        assert_eq!(w004_lines("while true {\n  break;\n  1 + 1;\n}"), vec![3]);
        // A block that returns makes the next statement dead ...
        assert_eq!(
            w004_lines("fn f(x) {\n  { return 1; }\n  x;\n  x;\n}\nf(1)"),
            vec![3]
        );
        // ... and a chain already reported inside the block runs on after it.
        assert_eq!(
            w004_lines("fn f(x) {\n  { return 1;\n x; }\n  x;\n}\nf(1)"),
            vec![3]
        );
    }

    /// Lines of the W004 findings in `src`.
    fn w004_lines(src: &str) -> Vec<u32> {
        lint_source(src)
            .expect("parses")
            .iter()
            .filter(|d| d.code == Code::UnreachableCode)
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn if_else_that_always_leaves_makes_the_rest_dead() {
        let ds = lint_source(
            "fn h(c) {\n if c { return 1; } else { return 2; }\n return typo1;\n}\nh(1)",
        )
        .unwrap();
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!((ds[0].code, ds[0].line), (Code::UnreachableCode, 3));
        // Without the `else` the fall-through path keeps the rest live.
        assert!(codes("fn h(c) { if c { return 1; } return 2; } h(1)").is_empty());
    }

    #[test]
    fn if_else_of_break_and_continue_in_a_loop_makes_the_rest_dead() {
        let src = "for i in range(0, 3) {\n if i { break; } else { continue; }\n let z = 1;\n}";
        let ds = lint_source(src).unwrap();
        assert!(
            ds.iter()
                .any(|d| d.code == Code::UnreachableCode && d.line == 3),
            "{ds:?}"
        );
    }

    #[test]
    fn dead_chain_is_reported_once_across_later_jumps() {
        assert_eq!(
            w004_lines("fn f(x) {\n return 1;\n return 2;\n x;\n}\nf(1)"),
            vec![3]
        );
    }

    #[test]
    fn w005_constant_condition() {
        assert!(codes("if 1 < 2 { 1; } else { 2; }").contains(&"W005"));
        assert!(codes("if true { 1; }").contains(&"W005"));
        assert!(codes("let x = 1; while false { x = 2; } x").contains(&"W005"));
        // `while true` without break never exits.
        assert!(codes("while true { let x = 1; x; }").contains(&"W005"));
        // ... but with a break it is the idiomatic unbounded loop.
        assert!(codes("let i = 0; while true { i = i + 1; if i > 3 { break; } } i").is_empty());
        // A break owned by a nested loop does not rescue the outer loop.
        assert!(codes("while true { for i in range(0, 3) { break; } }").contains(&"W005"));
    }

    #[test]
    fn w006_arity_mismatch() {
        let ds = lint_source("fn add(a, b) { return a + b; } add(1)").unwrap();
        assert!(ds.iter().any(|d| d.code == Code::ArityMismatch), "{ds:?}");
        assert_eq!(codes("sqrt(1, 2)"), vec!["W006"]);
        assert_eq!(codes("let a = zeros(3); vdot(a)"), vec!["W006"]);
        // print is variadic.
        assert!(codes("print(1, 2, 3)").is_empty());
    }

    #[test]
    fn w007_shadowing() {
        let ds = lint_source("let x = 1;\n{ let x = 2; x; }\nx").unwrap();
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Shadowing);
        assert_eq!(ds[0].line, 2);
        assert!(ds[0].message.contains("line 1"));
        // A loop variable shadowing an outer binding warns too, and a body
        // `let` shadows the loop variable (it sits in a scope outside the
        // body). Once the inner scope closes, the outer binding is the one
        // read, so no W003.
        assert!(codes("let i = 9; for i in range(0, 2) { } i").contains(&"W007"));
        assert_eq!(
            codes("let i = 5; for i in range(0, 3) { i; } i"),
            vec!["W007"]
        );
        assert_eq!(
            findings("for i in range(0, 3) {\n let i = 1;\n i;\n}"),
            vec![(Code::Shadowing, 2)]
        );
        // Redeclaring in the same scope shadows too.
        assert_eq!(
            findings("let v = 1;\nlet v = v + 1;\nv"),
            vec![(Code::Shadowing, 2)]
        );
        // Distinct scopes with the same name do not shadow.
        assert!(codes("{ let t = 1; t; } { let t = 2; t; }").is_empty());
    }

    #[test]
    fn w008_division_by_provably_zero() {
        assert_eq!(codes("let n = 4; n / 0"), vec!["W008"]);
        assert_eq!(codes("let n = 4; n % (1 - 1)"), vec!["W008"]);
        // The interval lattice proves zero through variables too — not just
        // literal denominators.
        assert_eq!(codes("let n = 4; let d = 0; n / d"), vec!["W008"]);
        // Non-zero and non-constant divisors are fine, and a denominator
        // that is only *possibly* zero stays silent.
        assert!(codes("let n = 4; n / 2").is_empty());
        assert!(
            codes("fn f(d) { return 4 / d; } f(2)").is_empty(),
            "possibly-zero divisor must not warn"
        );
    }

    /// Whether the bytecode compiler accepts `src`.
    fn compiles(src: &str) -> bool {
        crate::bytecode::compile(&parse(src).expect("parses")).is_ok()
    }

    #[test]
    fn w013_jump_outside_loop() {
        // A `break` in a function with no loop of its own: the compiler
        // rejects it, so the check must not pass it.
        let src = "fn f(x) { if x { break; } return x; } f(0)";
        assert_eq!(findings(src), vec![(Code::JumpOutsideLoop, 1)]);
        assert!(!compiles(src));
        // A top-level `continue` gets W013, not only the W004 its dead
        // successor draws.
        let src = "continue;\n1";
        assert_eq!(
            findings(src),
            vec![(Code::JumpOutsideLoop, 1), (Code::UnreachableCode, 2)]
        );
        assert!(!compiles(src));
        // Dead code still has to compile.
        let src = "fn f() {\n return 1;\n break;\n}\nf()";
        assert_eq!(
            findings(src),
            vec![(Code::UnreachableCode, 3), (Code::JumpOutsideLoop, 3)]
        );
        assert!(!compiles(src));
        // A loop around the call site is another region's loop.
        let src = "fn g() { continue; } for i in range(0, 3) { g(); }";
        assert_eq!(codes(src), vec!["W013"]);
        assert!(!compiles(src));
        // Jumps inside loops, nested or not, are fine.
        for src in [
            "fn f(n) { for i in range(0, n) { if i > 2 { break; } } return n; } f(4)",
            "let i = 0; while i < 3 { i = i + 1; { continue; } }",
            "for i in range(0, 2) { while true { break; } continue; }",
        ] {
            assert!(codes(src).is_empty(), "`{src}`: {:?}", codes(src));
            assert!(compiles(src), "`{src}`");
        }
    }

    #[test]
    fn clean_realistic_programs_have_zero_findings() {
        // Shapes mirroring the perf-gap kernels: these must stay silent or
        // E15's false-positive rate lies.
        for src in [
            "fn dot(a, b, n) { let acc = 0; for i in range(0, n) { acc = acc + a[i] * b[i]; } return acc; }\nlet x = fill(64, 1.5); let y = fill(64, 2.0); dot(x, y, 64)",
            "let inside = 0;\nfor i in range(0, 100) { let v = i % 7; if v < 3 { inside = inside + 1; } }\ninside",
            "fn f(n) { if n < 2 { return n; } return f(n - 1) + f(n - 2); } f(10)",
            "let a = [1, 2, 3]; a[0] = a[1] + a[2]; a[0]",
            "let i = 0; while i < 10 { i = i + 1; } i",
            "let a = 1; let b = a + 2; b",
            "let a = 1; if a { a; } else { a + 1; } a",
            "while true { break; } 1",
            "let s = 0; for i in range(0, 3) { s = s + i; } s",
            "let x = 1; if x > 0 { x = 2; } else { x = 3; } x",
            "let i = 0; while i < 5 { i = i + 1; } i",
            "let a = 1; { let b = a + 1; b; } a",
            "fn f(a, b) { return a + b; } f(1, 2)",
        ] {
            let ds = lint_source(src).unwrap();
            assert!(ds.is_empty(), "false positive on clean program:\n{src}\n{ds:?}");
        }
    }

    #[test]
    fn diagnostics_sort_by_line_then_code() {
        let ds = lint_source("let u = 1;\nlet v = w;\nif true { 1; }").unwrap();
        let lines: Vec<u32> = ds.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "{ds:?}");
    }

    #[test]
    fn dead_code_does_not_double_report_resolution_issues() {
        // The unreachable block references an undefined name; it gets W004
        // for the block, not a W001 as well.
        let ds = lint_source("fn f() { return 1; ghost; } f()").unwrap();
        assert!(ds.iter().any(|d| d.code == Code::UnreachableCode));
        assert!(
            ds.iter().all(|d| d.code != Code::UndefinedVariable),
            "{ds:?}"
        );
    }
}
