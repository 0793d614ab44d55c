//! Tier 2, part 1: the bytecode compiler.
//!
//! Variables are resolved to numbered frame slots at compile time (the
//! single biggest win over the tree-walker's hash-map lookups), `break` /
//! `continue` become patched jumps, and call targets are resolved to
//! function or builtin indices. Slots are pre-allocated per function, so
//! scope exit costs nothing at runtime.

use std::collections::HashMap;

use crate::ast::{BinOp, Block, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};
use crate::builtins;
use crate::error::{Error, Result};
use crate::value::Value;

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push nil.
    Nil,
    /// Push true.
    True,
    /// Push false.
    False,
    /// Push local slot `i`.
    LoadLocal(u16),
    /// Pop into local slot `i`.
    StoreLocal(u16),
    /// Arithmetic/comparison (dispatches through [`crate::value::binop`]).
    Bin(BinOp),
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
    /// Unconditional jump to absolute instruction index.
    Jump(u32),
    /// Pop; jump when falsey.
    JumpIfFalse(u32),
    /// Jump when top-of-stack is falsey, leaving it in place (for `and`).
    JumpIfFalsePeek(u32),
    /// Jump when top-of-stack is truthy, leaving it in place (for `or`).
    JumpIfTruePeek(u32),
    /// Call user function `i` with `argc` arguments already on the stack.
    CallFn(u16, u8),
    /// Call builtin `i` with `argc` arguments already on the stack.
    CallBuiltin(u16, u8),
    /// Return with the top-of-stack value.
    Ret,
    /// Return nil.
    RetNil,
    /// Pop `n` values, push an array of them (in push order).
    MakeArray(u16),
    /// Pop index and base, push `base[index]`.
    IndexGet,
    /// Pop value, index, base; perform `base[index] = value`.
    IndexSet,
    /// Pop and discard.
    Pop,
    /// Pop into the VM's result register (top-level expression statements).
    SetResult,

    // --- Superinstructions ---------------------------------------------
    // The compiler never emits these; [`crate::peephole`] synthesizes them
    // from the plain opcodes above, and the VM executes them with fewer
    // dispatches and less stack traffic. Each one is observably equivalent
    // to the sequence it replaces (including error messages and source
    // lines), which the equivalence proptests enforce.
    /// Push local slot `a`, then local slot `b`
    /// (fuses `LoadLocal(a); LoadLocal(b)`).
    LoadLocal2(u16, u16),
    /// Push local slot `a`, then constant `consts[c]`
    /// (fuses `LoadLocal(a); Const(c)`).
    LoadLocalConst(u16, u16),
    /// Push `binop(op, slot a, slot b)`, reading both operands straight
    /// from their frame slots (fuses `LoadLocal(a); LoadLocal(b); Bin(op)`).
    BinLL(BinOp, u16, u16),
    /// Push `binop(op, slot a, consts[c])`
    /// (fuses `LoadLocal(a); Const(c); Bin(op)`).
    BinLC(BinOp, u16, u16),
    /// Pop `lhs`, push `binop(op, lhs, consts[c])`
    /// (fuses `Const(c); Bin(op)`).
    BinC(BinOp, u16),
    /// `slot a = slot a + consts[c]` with no stack traffic (fuses
    /// `LoadLocal(a); Const(c); Bin(Add); StoreLocal(a)`; the constant is
    /// always numeric).
    AddConstToLocal(u16, u16),
    /// `slot a = slot a + 1` — the induction-variable special case of
    /// [`Op::AddConstToLocal`].
    IncLocal(u16),
    /// Pop a value and add it into slot `a` in place — the accumulator
    /// pattern (fuses `LoadLocal(a); …expr…; Bin(Add); StoreLocal(a)`
    /// around a straight-line value expression).
    AddStackToLocal(u16),
    /// Pop `rhs` then `lhs`, jump to `t` when `binop(op, lhs, rhs)` is
    /// false (fuses a comparison `Bin` with the `JumpIfFalse` consuming
    /// it; `op` is always a comparison).
    JumpIfNotCmp(BinOp, u32),
    /// Push `slot a[slot b]` without touching the operand stack for base
    /// or index (fuses `LoadLocal(a); LoadLocal(b); IndexGet`). Emitted
    /// only when slot `a` is proven to hold a float array; the VM keeps a
    /// guarded fast path and falls back to the generic
    /// [`crate::value::index_get`] otherwise.
    IndexGetF(u16, u16),
    /// Pop a value and store it at `slot a[slot b]`
    /// (fuses the `LoadLocal(a); LoadLocal(b); … ; IndexSet` shape around
    /// a straight-line value expression). Same proof and fallback rules
    /// as [`Op::IndexGetF`].
    IndexSetF(u16, u16),
}

impl Op {
    /// The instruction index this op may jump to, or `None` for a non-jump.
    pub fn jump_target(mut self) -> Option<u32> {
        self.jump_target_mut().copied()
    }

    /// The jump target of a jump op, for patching and remapping.
    pub fn jump_target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfFalsePeek(t)
            | Op::JumpIfTruePeek(t)
            | Op::JumpIfNotCmp(_, t) => Some(t),
            _ => None,
        }
    }
}

/// A compiled function body.
#[derive(Debug, Clone)]
pub struct CompiledFn {
    /// Function name (`"<main>"` for the top level).
    pub name: String,
    /// Number of parameters.
    pub arity: u8,
    /// Total frame slots (parameters + locals + hidden loop temporaries).
    pub n_slots: u16,
    /// Instructions.
    pub code: Vec<Op>,
    /// Source line of each instruction, parallel to [`CompiledFn::code`]
    /// (`0` for synthesized code such as the implicit final return). The VM
    /// uses this to attach lines to runtime errors.
    pub lines: Vec<u32>,
    /// Constant pool.
    pub consts: Vec<Value>,
}

/// A fully compiled program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// All functions; the last entry is the synthesized `<main>`.
    pub funcs: Vec<CompiledFn>,
    /// Index of `<main>` in [`Compiled::funcs`].
    pub main: usize,
}

/// Compiles a parsed program.
///
/// # Errors
/// [`Error::Compile`] for undefined variables, unknown functions, arity
/// mismatches, duplicate/shadowing definitions, and `break`/`continue`
/// outside loops. (The tree-walker reports these lazily at runtime; the
/// compiler front-loads them.)
pub fn compile(program: &Program) -> Result<Compiled> {
    let mut fn_indices: HashMap<&str, (usize, usize)> = HashMap::new(); // name -> (idx, arity)
    for (i, f) in program.functions.iter().enumerate() {
        if builtins::lookup(&f.name).is_some() {
            return Err(Error::compile(
                format!("function `{}` shadows a builtin", f.name),
                f.line,
            ));
        }
        if fn_indices.insert(&f.name, (i, f.params.len())).is_some() {
            return Err(Error::compile(
                format!("function `{}` defined twice", f.name),
                f.line,
            ));
        }
    }
    let mut funcs = Vec::with_capacity(program.functions.len() + 1);
    for f in &program.functions {
        funcs.push(compile_fn(f, &fn_indices)?);
    }
    let main_def = FnDef {
        name: "<main>".into(),
        params: Vec::new(),
        body: program.main.clone(),
        line: 0,
    };
    let mut main = Compiler::new(&main_def, &fn_indices, true);
    main.block_flat(&program.main)?;
    main.line = 0; // synthesized return carries no source line
    main.emit(Op::RetNil);
    funcs.push(main.finish());
    let main_idx = funcs.len() - 1;
    Ok(Compiled {
        funcs,
        main: main_idx,
    })
}

fn compile_fn(f: &FnDef, fns: &HashMap<&str, (usize, usize)>) -> Result<CompiledFn> {
    let mut c = Compiler::new(f, fns, false);
    c.block_flat(&f.body)?;
    c.line = 0; // synthesized return carries no source line
    c.emit(Op::RetNil);
    Ok(c.finish())
}

/// Book-keeping for one loop being compiled.
struct LoopCtx {
    /// Jump target for `continue`; `None` inside a `for` until the increment
    /// address is known (placeholder jumps are patched afterwards).
    continue_target: Option<u32>,
    /// Indices of `break` jump instructions awaiting the exit address.
    break_patches: Vec<usize>,
}

struct Compiler<'a> {
    fns: &'a HashMap<&'a str, (usize, usize)>,
    /// `(name, slot)` pairs, innermost declarations last.
    locals: Vec<(String, u16)>,
    /// `locals.len()` at each open scope.
    scope_starts: Vec<usize>,
    next_slot: u16,
    code: Vec<Op>,
    lines: Vec<u32>,
    consts: Vec<Value>,
    loops: Vec<LoopCtx>,
    is_main: bool,
    name: String,
    arity: u8,
    line: u32,
}

impl<'a> Compiler<'a> {
    fn new(f: &FnDef, fns: &'a HashMap<&'a str, (usize, usize)>, is_main: bool) -> Self {
        let mut c = Compiler {
            fns,
            locals: Vec::new(),
            scope_starts: Vec::new(),
            next_slot: 0,
            code: Vec::new(),
            lines: Vec::new(),
            consts: Vec::new(),
            loops: Vec::new(),
            is_main,
            name: f.name.clone(),
            arity: f.params.len() as u8,
            line: f.line,
        };
        for p in &f.params {
            c.declare(p.clone());
        }
        c
    }

    fn finish(self) -> CompiledFn {
        CompiledFn {
            name: self.name,
            arity: self.arity,
            n_slots: self.next_slot,
            code: self.code,
            lines: self.lines,
            consts: self.consts,
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.lines.push(self.line);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        let op = &mut self.code[at];
        match op.jump_target_mut() {
            Some(t) => *t = target,
            None => unreachable!("patching non-jump {op:?}"),
        }
    }

    fn constant(&mut self, v: Value) -> Result<u16> {
        if self.consts.len() >= u16::MAX as usize {
            return Err(Error::compile(
                "too many constants in one function",
                self.line,
            ));
        }
        self.consts.push(v);
        Ok((self.consts.len() - 1) as u16)
    }

    fn declare(&mut self, name: String) -> u16 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.locals.push((name, slot));
        slot
    }

    fn resolve(&self, name: &str) -> Option<u16> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    fn push_scope(&mut self) {
        self.scope_starts.push(self.locals.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("balanced scopes");
        self.locals.truncate(start);
    }

    fn block_flat(&mut self, block: &Block) -> Result<()> {
        for s in block {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn block_scoped(&mut self, block: &Block) -> Result<()> {
        self.push_scope();
        let r = self.block_flat(block);
        self.pop_scope();
        r
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<()> {
        self.line = stmt.line;
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                self.expr(init)?;
                let slot = self.declare(name.clone());
                self.emit(Op::StoreLocal(slot));
                Ok(())
            }
            StmtKind::Assign { name, value } => {
                let Some(slot) = self.resolve(name) else {
                    return Err(Error::compile(
                        format!("assignment to undefined variable `{name}`"),
                        self.line,
                    ));
                };
                self.expr(value)?;
                self.emit(Op::StoreLocal(slot));
                Ok(())
            }
            StmtKind::IndexAssign { base, index, value } => {
                self.expr(base)?;
                self.expr(index)?;
                self.expr(value)?;
                self.line = line;
                self.emit(Op::IndexSet);
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.expr(e)?;
                self.emit(if self.is_main { Op::SetResult } else { Op::Pop });
                Ok(())
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.expr(cond)?;
                let jf = self.emit(Op::JumpIfFalse(0));
                self.block_scoped(then_block)?;
                if else_block.is_empty() {
                    let end = self.here();
                    self.patch(jf, end);
                } else {
                    let jend = self.emit(Op::Jump(0));
                    let else_at = self.here();
                    self.patch(jf, else_at);
                    self.block_scoped(else_block)?;
                    let end = self.here();
                    self.patch(jend, end);
                }
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let top = self.here();
                self.expr(cond)?;
                let jf = self.emit(Op::JumpIfFalse(0));
                self.loops.push(LoopCtx {
                    continue_target: Some(top),
                    break_patches: Vec::new(),
                });
                self.block_scoped(body)?;
                self.emit(Op::Jump(top));
                let exit = self.here();
                self.patch(jf, exit);
                let ctx = self.loops.pop().expect("loop ctx pushed above");
                for b in ctx.break_patches {
                    self.patch(b, exit);
                }
                Ok(())
            }
            StmtKind::ForRange {
                var,
                start,
                end,
                body,
            } => {
                // Scope holding the loop variable and the hidden end slot.
                self.push_scope();
                self.expr(start)?;
                let i_slot = self.declare(var.clone());
                self.emit(Op::StoreLocal(i_slot));
                self.expr(end)?;
                // Hidden slot: a name no identifier can collide with.
                let end_slot = self.declare(format!("<end:{}>", self.next_slot));
                self.emit(Op::StoreLocal(end_slot));

                let top = self.here();
                self.emit(Op::LoadLocal(i_slot));
                self.emit(Op::LoadLocal(end_slot));
                self.emit(Op::Bin(BinOp::Lt));
                let jf = self.emit(Op::JumpIfFalse(0));

                // `continue` must run the increment, so it targets a stub we
                // know only after the body: emit body, record increment spot.
                self.loops.push(LoopCtx {
                    continue_target: None,
                    break_patches: Vec::new(),
                });
                let body_start = self.here();
                self.block_scoped(body)?;
                let increment_at = self.here();
                // Patch any `continue` placeholders (stored as Jump(u32::MAX)).
                for idx in 0..self.code.len() {
                    if self.code[idx] == Op::Jump(CONTINUE_PLACEHOLDER)
                        && idx >= body_start as usize
                    {
                        self.patch(idx, increment_at);
                    }
                }
                self.emit(Op::LoadLocal(i_slot));
                let one = self.constant(Value::Num(1.0))?;
                self.emit(Op::Const(one));
                self.emit(Op::Bin(BinOp::Add));
                self.emit(Op::StoreLocal(i_slot));
                self.emit(Op::Jump(top));
                let exit = self.here();
                self.patch(jf, exit);
                let ctx = self.loops.pop().expect("loop ctx pushed above");
                for b in ctx.break_patches {
                    self.patch(b, exit);
                }
                self.pop_scope();
                Ok(())
            }
            StmtKind::Return(value) => {
                match value {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Op::Ret);
                    }
                    None => {
                        self.emit(Op::RetNil);
                    }
                }
                Ok(())
            }
            StmtKind::Break => {
                if self.loops.is_empty() {
                    return Err(Error::compile("`break` outside a loop", self.line));
                }
                let j = self.emit(Op::Jump(0));
                self.loops
                    .last_mut()
                    .expect("checked non-empty")
                    .break_patches
                    .push(j);
                Ok(())
            }
            StmtKind::Continue => {
                let Some(ctx) = self.loops.last() else {
                    return Err(Error::compile("`continue` outside a loop", self.line));
                };
                match ctx.continue_target {
                    Some(t) => {
                        self.emit(Op::Jump(t));
                    }
                    // Inside a for-range the increment address is unknown
                    // until the body is compiled; emit a placeholder.
                    None => {
                        self.emit(Op::Jump(CONTINUE_PLACEHOLDER));
                    }
                }
                Ok(())
            }
            StmtKind::Block(b) => self.block_scoped(b),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<()> {
        self.line = e.line;
        let line = e.line;
        match &e.kind {
            ExprKind::Num(n) => {
                let c = self.constant(Value::Num(*n))?;
                self.emit(Op::Const(c));
            }
            ExprKind::Str(s) => {
                let c = self.constant(Value::str(s))?;
                self.emit(Op::Const(c));
            }
            ExprKind::Bool(true) => {
                self.emit(Op::True);
            }
            ExprKind::Bool(false) => {
                self.emit(Op::False);
            }
            ExprKind::Nil => {
                self.emit(Op::Nil);
            }
            ExprKind::Var(name) => {
                let Some(slot) = self.resolve(name) else {
                    return Err(Error::compile(
                        format!("undefined variable `{name}`"),
                        self.line,
                    ));
                };
                self.emit(Op::LoadLocal(slot));
            }
            ExprKind::Array(elems) => {
                if elems.len() > u16::MAX as usize {
                    return Err(Error::compile("array literal too large", self.line));
                }
                for el in elems {
                    self.expr(el)?;
                }
                self.emit(Op::MakeArray(elems.len() as u16));
            }
            ExprKind::Bin { op, lhs, rhs } => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                self.line = line;
                self.emit(Op::Bin(*op));
            }
            ExprKind::And(l, r) => {
                self.expr(l)?;
                let j = self.emit(Op::JumpIfFalsePeek(0));
                self.emit(Op::Pop);
                self.expr(r)?;
                let end = self.here();
                self.patch(j, end);
            }
            ExprKind::Or(l, r) => {
                self.expr(l)?;
                let j = self.emit(Op::JumpIfTruePeek(0));
                self.emit(Op::Pop);
                self.expr(r)?;
                let end = self.here();
                self.patch(j, end);
            }
            ExprKind::Un { op, expr } => {
                self.expr(expr)?;
                self.line = line;
                self.emit(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            ExprKind::Index { base, index } => {
                self.expr(base)?;
                self.expr(index)?;
                self.line = line;
                self.emit(Op::IndexGet);
            }
            ExprKind::Call { name, args } => {
                if args.len() > u8::MAX as usize {
                    return Err(Error::compile("too many call arguments", line));
                }
                if let Some(&(idx, arity)) = self.fns.get(name.as_str()) {
                    if args.len() != arity {
                        return Err(Error::compile(
                            format!(
                                "function `{name}` expects {arity} argument(s), got {}",
                                args.len()
                            ),
                            line,
                        ));
                    }
                    for a in args {
                        self.expr(a)?;
                    }
                    self.line = line;
                    self.emit(Op::CallFn(idx as u16, args.len() as u8));
                } else if let Some(bidx) = builtins::NAMES.iter().position(|n| n == name) {
                    // Builtins declare their arity statically; front-load the
                    // check that lookup-based dispatch would only hit at
                    // runtime (variadic builtins report `None` and skip it).
                    if let Some(Some(want)) = builtins::arity_of(name) {
                        if args.len() != want {
                            return Err(Error::compile(
                                format!(
                                    "builtin `{name}` expects {want} argument(s), got {}",
                                    args.len()
                                ),
                                line,
                            ));
                        }
                    }
                    for a in args {
                        self.expr(a)?;
                    }
                    self.line = line;
                    self.emit(Op::CallBuiltin(bidx as u16, args.len() as u8));
                } else {
                    return Err(Error::compile(format!("unknown function `{name}`"), line));
                }
            }
        }
        Ok(())
    }
}

/// Sentinel jump target used for `continue` inside `for` until the increment
/// address is known.
const CONTINUE_PLACEHOLDER: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Result<Compiled> {
        compile(&parse(src).expect("test programs parse"))
    }

    #[test]
    fn compiles_simple_program() {
        let c = compile_src("let x = 1; x + 2").unwrap();
        assert_eq!(c.funcs.len(), 1);
        let main = &c.funcs[c.main];
        assert_eq!(main.name, "<main>");
        assert_eq!(main.arity, 0);
        assert!(main.n_slots >= 1);
        assert!(main.code.contains(&Op::SetResult));
        assert_eq!(*main.code.last().unwrap(), Op::RetNil);
    }

    #[test]
    fn function_bodies_pop_instead_of_set_result() {
        let c = compile_src("fn f() { 42; } f()").unwrap();
        let f = &c.funcs[0];
        assert!(f.code.contains(&Op::Pop));
        assert!(!f.code.contains(&Op::SetResult));
    }

    #[test]
    fn undefined_variable_is_a_compile_error() {
        assert!(matches!(compile_src("y + 1"), Err(Error::Compile { .. })));
        assert!(matches!(compile_src("x = 1;"), Err(Error::Compile { .. })));
    }

    #[test]
    fn unknown_function_and_arity_checked_at_compile_time() {
        assert!(compile_src("nope(1)").is_err());
        assert!(compile_src("fn f(a) { return a; } f(1, 2)").is_err());
        assert!(compile_src("fn f(a) { return a; } f(1)").is_ok());
    }

    #[test]
    fn builtin_arity_checked_at_compile_time() {
        // Fixed-arity builtins are rejected before execution.
        let err = compile_src("sqrt(1, 2)").unwrap_err();
        assert!(
            matches!(err, Error::Compile { .. }),
            "want compile error, got {err:?}"
        );
        assert!(err.to_string().contains("expects 1 argument"), "{err}");
        assert!(compile_src("vdot([1.0])").is_err());
        assert!(compile_src("let a = zeros(4); vaxpy(2.0, a)").is_err());
        // Correct arities still compile.
        assert!(compile_src("sqrt(4)").is_ok());
        assert!(compile_src("min(1, 2)").is_ok());
        // Variadic `print` accepts any argument count.
        assert!(compile_src("print()").is_ok());
        assert!(compile_src("print(1, 2, 3, 4)").is_ok());
    }

    #[test]
    fn line_table_parallels_code() {
        let c = compile_src("let x = 1;\nlet y = x + 2;\ny").unwrap();
        for f in &c.funcs {
            assert_eq!(
                f.code.len(),
                f.lines.len(),
                "{}: lines not parallel",
                f.name
            );
        }
        let main = &c.funcs[c.main];
        // The Bin(Add) instruction sits on source line 2.
        let at = main
            .code
            .iter()
            .position(|op| *op == Op::Bin(BinOp::Add))
            .expect("add compiled");
        assert_eq!(main.lines[at], 2);
        // The synthesized trailing RetNil carries no line.
        assert_eq!(*main.lines.last().unwrap(), 0);
    }

    #[test]
    fn duplicate_and_shadowing_functions_rejected() {
        assert!(compile_src("fn f() { } fn f() { }").is_err());
        assert!(compile_src("fn len(a) { }").is_err());
    }

    #[test]
    fn break_continue_require_loop() {
        assert!(compile_src("break;").is_err());
        assert!(compile_src("continue;").is_err());
        assert!(compile_src("while true { break; }").is_ok());
    }

    #[test]
    fn scope_resolution_shadowing() {
        // Inner `x` gets its own slot; outer is restored after the block.
        let c = compile_src("let x = 1; { let x = 2; x; } x").unwrap();
        let main = &c.funcs[c.main];
        assert!(main.n_slots >= 2);
    }

    #[test]
    fn loop_emits_hidden_end_slot() {
        let c = compile_src("for i in range(0, 3) { i; }").unwrap();
        let main = &c.funcs[c.main];
        // i + hidden end.
        assert!(main.n_slots >= 2);
        // No placeholder jumps survive compilation.
        assert!(!main.code.contains(&Op::Jump(CONTINUE_PLACEHOLDER)));
    }

    #[test]
    fn continue_in_for_patched_to_increment() {
        let c = compile_src(
            "let s = 0; for i in range(0, 10) { if i % 2 == 0 { continue; } s = s + i; }",
        )
        .unwrap();
        let main = &c.funcs[c.main];
        assert!(!main.code.contains(&Op::Jump(CONTINUE_PLACEHOLDER)));
    }

    #[test]
    fn loop_variable_out_of_scope_after_for() {
        assert!(compile_src("for i in range(0, 3) { } i").is_err());
    }
}
