//! Tier 1: the tree-walking AST interpreter.
//!
//! Deliberately naive — boxed values, name lookups through a scope stack,
//! dispatch on AST nodes — because it models the baseline interpreter a
//! scripting-language user starts from. The bytecode VM in [`crate::vm`] is
//! the optimized tier.
//!
//! Scoping rules: functions are top-level and see only their parameters and
//! locals (plus other functions and builtins); they do not capture top-level
//! variables. Blocks introduce lexical scopes with shadowing.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{Block, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};
use crate::builtins;
use crate::error::{Error, Result};
use crate::value::{binop, heap_cost, index_get, index_set, Value};

/// Maximum interpreter call depth. The tree-walker recurses on the host
/// stack (several Rust frames per script frame), so this is deliberately
/// conservative — deep enough for every benchmark kernel, shallow enough to
/// stay well inside a 2 MiB test-thread stack even in debug builds.
const MAX_DEPTH: usize = 150;

/// Control-flow signal threaded through statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// The tree-walking interpreter.
pub struct Interpreter {
    functions: HashMap<String, Arc<FnDef>>,
    /// Scope stack of the currently executing frame (innermost last).
    scopes: Vec<HashMap<String, Value>>,
    depth: usize,
    /// Value of the most recent top-level expression statement.
    result: Value,
    /// Whether expression statements should record into `result` (true only
    /// while executing top-level code).
    record_result: bool,
    /// Step budget per [`Interpreter::run`] call; `None` means unlimited.
    fuel_budget: Option<u64>,
    /// Fuel remaining in the current run.
    fuel_left: u64,
    /// Heap-byte budget per [`Interpreter::run`] call; `None` is unlimited.
    mem_budget: Option<u64>,
    /// Heap bytes remaining in the current run.
    mem_left: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates a fresh interpreter.
    pub fn new() -> Self {
        Interpreter {
            functions: HashMap::new(),
            scopes: vec![HashMap::new()],
            depth: 0,
            result: Value::Nil,
            record_result: true,
            fuel_budget: None,
            fuel_left: 0,
            mem_budget: None,
            mem_left: 0,
        }
    }

    /// Creates an interpreter with a step budget: each [`Interpreter::run`]
    /// may execute at most `fuel` statements/loop iterations before failing
    /// with [`Error::FuelExhausted`]. A bound on runaway scripts
    /// (`while true {}`) that [`Interpreter::new`] would execute forever.
    pub fn with_fuel(fuel: u64) -> Self {
        Self::with_limits(Some(fuel), None)
    }

    /// Creates an interpreter with independent step and heap-byte budgets
    /// (either may be `None` for unlimited). Memory is charged under the
    /// [`heap_cost`] model at array construction, builtin-call results, and
    /// string concatenation; exceeding the budget fails the run with
    /// [`Error::MemoryExhausted`]. Both budgets reset on each
    /// [`Interpreter::run`].
    pub fn with_limits(fuel: Option<u64>, memory: Option<u64>) -> Self {
        let mut i = Self::new();
        i.fuel_budget = fuel;
        i.mem_budget = memory;
        i
    }

    /// Spends one unit of fuel; errors when the budget is gone.
    #[inline]
    fn charge(&mut self) -> Result<()> {
        if let Some(budget) = self.fuel_budget {
            if self.fuel_left == 0 {
                return Err(Error::FuelExhausted { budget });
            }
            self.fuel_left -= 1;
        }
        Ok(())
    }

    /// Charges `v`'s heap cost against the memory budget; errors when the
    /// allocation would exceed it.
    #[inline]
    fn charge_alloc(&mut self, v: &Value) -> Result<()> {
        if let Some(budget) = self.mem_budget {
            let cost = heap_cost(v);
            if cost > self.mem_left {
                return Err(Error::MemoryExhausted { budget });
            }
            self.mem_left -= cost;
        }
        Ok(())
    }

    /// Runs a program, returning the value of its final top-level expression
    /// statement (or [`Value::Nil`] if there is none).
    ///
    /// # Errors
    /// [`Error::Runtime`] diagnostics.
    pub fn run(&mut self, program: &Program) -> Result<Value> {
        self.fuel_left = self.fuel_budget.unwrap_or(0);
        self.mem_left = self.mem_budget.unwrap_or(0);
        for f in &program.functions {
            if self
                .functions
                .insert(f.name.clone(), Arc::clone(f))
                .is_some()
            {
                return Err(
                    Error::runtime(format!("function `{}` defined twice", f.name))
                        .with_line(f.line),
                );
            }
            if builtins::lookup(&f.name).is_some() {
                return Err(
                    Error::runtime(format!("function `{}` shadows a builtin", f.name))
                        .with_line(f.line),
                );
            }
        }
        match self.exec_block_flat(&program.main)? {
            Flow::Normal => Ok(self.result.clone()),
            _ => Err(Error::runtime("`break`/`continue` escaped all loops")),
        }
    }

    /// Executes statements in the *current* scope (no new scope pushed) —
    /// used for the top level and for loop bodies that manage their own
    /// scope.
    fn exec_block_flat(&mut self, block: &Block) -> Result<Flow> {
        for stmt in block {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Executes a block in a fresh lexical scope.
    fn exec_block_scoped(&mut self, block: &Block) -> Result<Flow> {
        self.scopes.push(HashMap::new());
        let r = self.exec_block_flat(block);
        self.scopes.pop();
        r
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow> {
        self.charge()?;
        // Any runtime error escaping this statement that an inner expression
        // has not already pinned to a line gets the statement's line.
        self.exec_stmt_kind(&stmt.kind)
            .map_err(|e| e.with_line(stmt.line))
    }

    fn exec_stmt_kind(&mut self, stmt: &StmtKind) -> Result<Flow> {
        match stmt {
            StmtKind::Let { name, init } => {
                let v = self.eval(init)?;
                self.scopes
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { name, value } => {
                let v = self.eval(value)?;
                for scope in self.scopes.iter_mut().rev() {
                    if let Some(slot) = scope.get_mut(name) {
                        *slot = v;
                        return Ok(Flow::Normal);
                    }
                }
                Err(Error::runtime(format!(
                    "assignment to undefined variable `{name}`"
                )))
            }
            StmtKind::IndexAssign { base, index, value } => {
                let b = self.eval(base)?;
                let i = self.eval(index)?;
                let v = self.eval(value)?;
                index_set(&b, &i, v)?;
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                let v = self.eval(e)?;
                if self.record_result {
                    self.result = v;
                }
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block_scoped(then_block)
                } else {
                    self.exec_block_scoped(else_block)
                }
            }
            StmtKind::While { cond, body } => {
                // Charge per iteration: an empty body executes no statements,
                // so the statement-entry charge alone would never bound
                // `while true {}`.
                while {
                    self.charge()?;
                    self.eval(cond)?.truthy()
                } {
                    match self.exec_block_scoped(body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::ForRange {
                var,
                start,
                end,
                body,
            } => {
                let start = self.eval(start)?.as_num("for start")?;
                let end = self.eval(end)?.as_num("for end")?;
                let mut i = start;
                while i < end {
                    self.charge()?;
                    self.scopes.push(HashMap::new());
                    self.scopes
                        .last_mut()
                        .expect("just pushed")
                        .insert(var.clone(), Value::Num(i));
                    let flow = self.exec_block_flat(body);
                    self.scopes.pop();
                    match flow? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    i += 1.0;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block_scoped(b),
        }
    }

    fn lookup(&self, name: &str) -> Result<Value> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(v.clone());
            }
        }
        Err(Error::runtime(format!("undefined variable `{name}`")))
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value> {
        // The innermost failing expression stamps its line first; enclosing
        // frames see a line already set and leave it be.
        self.eval_kind(&expr.kind)
            .map_err(|e| e.with_line(expr.line))
    }

    fn eval_kind(&mut self, expr: &ExprKind) -> Result<Value> {
        match expr {
            ExprKind::Num(n) => Ok(Value::Num(*n)),
            ExprKind::Str(s) => Ok(Value::str(s)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::Var(name) => self.lookup(name),
            ExprKind::Array(elems) => {
                let mut items = Vec::with_capacity(elems.len());
                for e in elems {
                    items.push(self.eval(e)?);
                }
                let v = Value::array(items);
                self.charge_alloc(&v)?;
                Ok(v)
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                let v = binop(*op, &l, &r)?;
                // Only string concatenation allocates here; scalars are free.
                self.charge_alloc(&v)?;
                Ok(v)
            }
            ExprKind::And(lhs, rhs) => {
                let l = self.eval(lhs)?;
                if !l.truthy() {
                    Ok(l)
                } else {
                    self.eval(rhs)
                }
            }
            ExprKind::Or(lhs, rhs) => {
                let l = self.eval(lhs)?;
                if l.truthy() {
                    Ok(l)
                } else {
                    self.eval(rhs)
                }
            }
            ExprKind::Un { op, expr } => {
                let v = self.eval(expr)?;
                match op {
                    UnOp::Neg => Ok(Value::Num(-v.as_num("unary `-`")?)),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base)?;
                let i = self.eval(index)?;
                index_get(&b, &i)
            }
            ExprKind::Call { name, args, .. } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a)?);
                }
                self.call(name, argv)
            }
        }
    }

    fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value> {
        if let Some(f) = self.functions.get(name).cloned() {
            if args.len() != f.params.len() {
                return Err(Error::runtime(format!(
                    "function `{name}` expects {} argument(s), got {}",
                    f.params.len(),
                    args.len()
                )));
            }
            if self.depth >= MAX_DEPTH {
                return Err(Error::runtime(format!(
                    "call depth exceeded {MAX_DEPTH} (runaway recursion in `{name}`?)"
                )));
            }
            // New frame: swap in a fresh scope stack holding the parameters.
            let mut frame_scopes = vec![f
                .params
                .iter()
                .cloned()
                .zip(args)
                .collect::<HashMap<String, Value>>()];
            std::mem::swap(&mut self.scopes, &mut frame_scopes);
            let saved_record = self.record_result;
            self.record_result = false;
            self.depth += 1;

            let flow = self.exec_block_flat(&f.body);

            self.depth -= 1;
            self.record_result = saved_record;
            std::mem::swap(&mut self.scopes, &mut frame_scopes);

            match flow? {
                Flow::Return(v) => Ok(v),
                Flow::Normal => Ok(Value::Nil),
                _ => Err(Error::runtime("`break`/`continue` escaped all loops")),
            }
        } else if let Some(b) = builtins::lookup(name) {
            let v = b(&args)?;
            // Builtins like `fill`/`zeros` allocate their result.
            self.charge_alloc(&v)?;
            Ok(v)
        } else {
            Err(Error::runtime(format!("unknown function `{name}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> Result<Value> {
        Interpreter::new().run(&parse(src).expect("test programs parse"))
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        let program = parse("while true { }").expect("parses");
        let err = Interpreter::with_fuel(10_000).run(&program).unwrap_err();
        assert!(
            matches!(err, Error::FuelExhausted { budget: 10_000 }),
            "{err}"
        );
        // Without fuel this program would never return; the default engine
        // stays unlimited.
        let program = parse("let i = 0; while i < 100 { i = i + 1; } i").expect("parses");
        assert_eq!(Interpreter::new().run(&program).unwrap(), Value::Num(100.0));
        // A generous budget does not change the result.
        assert_eq!(
            Interpreter::with_fuel(10_000).run(&program).unwrap(),
            Value::Num(100.0)
        );
        // A budget that is too small fails even for terminating programs.
        let err = Interpreter::with_fuel(5).run(&program).unwrap_err();
        assert!(matches!(err, Error::FuelExhausted { .. }), "{err}");
    }

    #[test]
    fn memory_budget_bounds_allocation() {
        // One big builtin allocation: 1000 floats = 8000 bytes.
        let program = parse("let a = zeros(1000); len(a)").expect("parses");
        let err = Interpreter::with_limits(None, Some(4_000))
            .run(&program)
            .unwrap_err();
        assert!(
            matches!(err, Error::MemoryExhausted { budget: 4_000 }),
            "{err}"
        );
        // A generous budget does not change the result.
        assert_eq!(
            Interpreter::with_limits(None, Some(16_000))
                .run(&program)
                .unwrap(),
            Value::Num(1000.0)
        );
        // Cumulative small allocations exhaust the budget too.
        let program =
            parse("let i = 0; while i < 100 { let a = zeros(10); i = i + 1; } i").expect("parses");
        let err = Interpreter::with_limits(None, Some(1_000))
            .run(&program)
            .unwrap_err();
        assert!(matches!(err, Error::MemoryExhausted { .. }), "{err}");
        // String concatenation is charged per result.
        let program = parse(
            r#"let s = ""; let i = 0; while i < 64 { s = s + "abcdefgh"; i = i + 1; } len(s)"#,
        )
        .expect("parses");
        let err = Interpreter::with_limits(None, Some(2_000))
            .run(&program)
            .unwrap_err();
        assert!(matches!(err, Error::MemoryExhausted { .. }), "{err}");
        // Scalars cost nothing: a long scalar loop runs under a tiny budget.
        let program = parse("let i = 0; while i < 1000 { i = i + 1; } i").expect("parses");
        assert_eq!(
            Interpreter::with_limits(None, Some(0))
                .run(&program)
                .unwrap(),
            Value::Num(1000.0)
        );
    }

    #[test]
    fn memory_budget_resets_on_each_run() {
        let program = parse("let a = zeros(100); len(a)").expect("parses");
        let mut i = Interpreter::with_limits(None, Some(1_000));
        assert_eq!(i.run(&program).unwrap(), Value::Num(100.0));
        // 800 bytes per run, budget per run — a second run still fits.
        assert_eq!(i.run(&program).unwrap(), Value::Num(100.0));
    }

    #[test]
    fn fuel_resets_on_each_run() {
        let program = parse("let s = 0; for i in range(0, 10) { s = s + i; } s").expect("parses");
        let mut i = Interpreter::with_fuel(100);
        assert_eq!(i.run(&program).unwrap(), Value::Num(45.0));
        // The budget is per run, not cumulative across runs.
        let mut j = Interpreter::with_fuel(100);
        assert_eq!(j.run(&program).unwrap(), Value::Num(45.0));
        assert_eq!(j.run(&program).unwrap(), Value::Num(45.0));
    }

    #[test]
    fn empty_program_yields_nil() {
        assert_eq!(run("").unwrap(), Value::Nil);
        assert_eq!(run("let x = 1;").unwrap(), Value::Nil);
    }

    #[test]
    fn last_expression_statement_is_result() {
        assert_eq!(run("1; 2; 3").unwrap(), Value::Num(3.0));
        assert_eq!(run("let x = 5; x * 2").unwrap(), Value::Num(10.0));
    }

    #[test]
    fn if_branches_record_result() {
        assert_eq!(run("if true { 1 } else { 2 }").unwrap(), Value::Num(1.0));
        assert_eq!(run("if false { 1 } else { 2 }").unwrap(), Value::Num(2.0));
        assert_eq!(run("if false { 1 }").unwrap(), Value::Nil);
    }

    #[test]
    fn function_body_expressions_do_not_leak_into_result() {
        // 42 inside f must not become the program result: the last top-level
        // expression statement is `f()`, whose value is nil.
        assert_eq!(run("fn f() { 42; } f(); let x = 1;").unwrap(), Value::Nil);
        // And a later `let` does not clobber an earlier recorded result.
        assert_eq!(
            run("fn f() { 42; } f(); 7; let x = 1;").unwrap(),
            Value::Num(7.0)
        );
    }

    #[test]
    fn functions_do_not_see_top_level_variables() {
        let r = run("let g = 10; fn f() { return g; } f()");
        assert!(r.is_err(), "functions must not capture globals: {r:?}");
    }

    #[test]
    fn shadowing_and_scope_exit() {
        assert_eq!(
            run("let x = 1; { let x = 2; x; } x").unwrap(),
            Value::Num(1.0)
        );
        // Inner assignment to outer variable persists.
        assert_eq!(run("let x = 1; { x = 5; } x").unwrap(), Value::Num(5.0));
    }

    #[test]
    fn loop_variable_scoped_to_body() {
        assert!(run("for i in range(0, 3) { } i").is_err());
    }

    #[test]
    fn while_with_break_and_continue() {
        assert_eq!(
            run("let s = 0; let i = 0; while true { i = i + 1; if i > 10 { break; } if i % 2 == 0 { continue; } s = s + i; } s")
                .unwrap(),
            Value::Num(25.0) // 1+3+5+7+9
        );
    }

    #[test]
    fn recursion_and_depth_limit() {
        assert_eq!(
            run("fn fact(n) { if n <= 1 { return 1; } return n * fact(n - 1); } fact(10)").unwrap(),
            Value::Num(3_628_800.0)
        );
        let r = run("fn inf(n) { return inf(n + 1); } inf(0)");
        assert!(r.unwrap_err().to_string().contains("call depth"));
    }

    #[test]
    fn early_return_skips_rest() {
        assert_eq!(run("fn f() { return 1; 2; } f()").unwrap(), Value::Num(1.0));
        assert_eq!(run("fn f() { return; } f()").unwrap(), Value::Nil);
        // Return from inside nested loops.
        assert_eq!(
            run("fn f() { for i in range(0, 10) { for j in range(0, 10) { if i * j == 6 { return i * 10 + j; } } } return 0 - 1; } f()")
                .unwrap(),
            Value::Num(16.0)
        );
    }

    #[test]
    fn duplicate_function_and_builtin_shadow_rejected() {
        assert!(run("fn f() { } fn f() { } 1").is_err());
        assert!(run("fn len(x) { return 0; } 1").is_err());
    }

    #[test]
    fn arity_mismatch_and_unknown_function() {
        assert!(run("fn f(a) { return a; } f()").is_err());
        assert!(run("ghost(1)").is_err());
    }

    #[test]
    fn short_circuit_preserves_operand_values() {
        // `and`/`or` return operand values, not booleans.
        assert_eq!(run("nil or 5").unwrap(), Value::Num(5.0));
        assert_eq!(run("3 and 7").unwrap(), Value::Num(7.0));
        assert_eq!(run("false and ghost(1)").unwrap(), Value::Bool(false));
        assert_eq!(run("1 or ghost(1)").unwrap(), Value::Num(1.0));
    }

    #[test]
    fn assignment_to_undefined_rejected() {
        assert!(run("x = 1;").is_err());
    }

    #[test]
    fn arrays_share_by_reference() {
        assert_eq!(
            run("fn bump(a) { a[0] = a[0] + 1; } let xs = [1]; bump(xs); bump(xs); xs[0]").unwrap(),
            Value::Num(3.0)
        );
    }

    #[test]
    fn matmul_script_smoke() {
        let src = r#"
            fn matmul(a, b, c, n) {
                for i in range(0, n) {
                    for j in range(0, n) {
                        let acc = 0;
                        for k in range(0, n) {
                            acc = acc + a[i * n + k] * b[k * n + j];
                        }
                        c[i * n + j] = acc;
                    }
                }
            }
            let n = 4;
            let a = fill(16, 1.0);
            let b = fill(16, 2.0);
            let c = zeros(16);
            matmul(a, b, c, n);
            c[5]
        "#;
        // Row of ones dot column of twos, n=4: 8.
        assert_eq!(run(src).unwrap(), Value::Num(8.0));
    }

    #[test]
    fn runtime_errors_carry_the_failing_line() {
        let err = run("let a = 1;\nlet b = 2;\nlet c = a + ghost;\nc").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: runtime error: undefined variable `ghost`"
        );
        // The innermost expression wins over the enclosing statement.
        let err = run("let x = [1, 2];\nlet y =\n  x[9];").unwrap_err();
        assert!(err.to_string().starts_with("line 3:"), "{err}");
        // Statement-level failures use the statement line.
        let err = run("let a = 1;\nmissing = 2;").unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }
}
