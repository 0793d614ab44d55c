//! Tier 2, part 2: the stack virtual machine.
//!
//! Frames live on one contiguous value stack: a frame's slots occupy
//! `[base, base + n_slots)` and operands grow above them. Calls push a new
//! frame whose base points at the already-pushed arguments, so parameter
//! passing is free.

use crate::ast::BinOp;
use crate::builtins;
use crate::bytecode::{Compiled, Op};
use crate::error::{Error, Result};
use crate::value::{binop, heap_cost, index_get, index_set, Value};

/// Maximum VM call depth (heap frames, so this bounds runaway recursion,
/// not the host stack). The JIT tier counts its frames against the same
/// limit so both tiers fail identically.
pub(crate) const MAX_FRAMES: usize = 10_000;

struct Frame {
    func: usize,
    ip: usize,
    base: usize,
}

/// A run's fuel: instructions `used` against the current `limit`, plus the
/// optional refill hook that may raise the limit when a charge crosses it.
/// One `&mut Fuel` is threaded through the VM loop and the JIT executor.
pub(crate) struct Fuel<'a> {
    used: u64,
    limit: u64,
    refill: Option<&'a mut dyn FnMut() -> Option<u64>>,
}

impl Fuel<'_> {
    /// Charges `n` dispatches: one add and one compare on the hot path.
    #[inline(always)]
    pub(crate) fn charge(&mut self, n: u64) -> Result<()> {
        self.used += n;
        if self.used > self.limit {
            return self.refuel();
        }
        Ok(())
    }

    /// The limit is crossed: ask the hook for more until the charge fits,
    /// or fail with the total limit reached.
    #[cold]
    #[inline(never)]
    fn refuel(&mut self) -> Result<()> {
        while self.used > self.limit {
            match self.refill.as_mut().and_then(|refill| refill()) {
                Some(more) => self.limit = self.limit.saturating_add(more),
                None => return Err(Error::FuelExhausted { budget: self.limit }),
            }
        }
        Ok(())
    }
}

/// The bytecode virtual machine.
#[derive(Default)]
pub struct Vm {
    stack: Vec<Value>,
    result: Value,
    /// Instruction budget per [`Vm::run`] call; `None` means unlimited.
    fuel_budget: Option<u64>,
    /// Heap-byte budget per [`Vm::run`] call; `None` means unlimited.
    mem_budget: Option<u64>,
    /// Heap bytes remaining in the current run.
    mem_left: u64,
}

impl Vm {
    /// Creates a fresh VM.
    pub fn new() -> Self {
        Vm {
            stack: Vec::with_capacity(256),
            result: Value::Nil,
            fuel_budget: None,
            mem_budget: None,
            mem_left: 0,
        }
    }

    /// Creates a VM with an instruction budget: each [`Vm::run`] may
    /// dispatch at most `fuel` instructions before failing with
    /// [`Error::FuelExhausted`]. A bound on runaway scripts
    /// (`while true {}`) that [`Vm::new`] would execute forever.
    pub fn with_fuel(fuel: u64) -> Self {
        Self::with_limits(Some(fuel), None)
    }

    /// Creates a VM with independent instruction and heap-byte budgets
    /// (either may be `None` for unlimited). Memory is charged under the
    /// [`heap_cost`] model at the same semantic construction points as the
    /// interpreter — array construction, builtin-call results, and string
    /// concatenation — so both tiers exhaust a given budget identically.
    /// Exceeding it fails the run with [`Error::MemoryExhausted`]. Both
    /// budgets reset on each [`Vm::run`].
    pub fn with_limits(fuel: Option<u64>, memory: Option<u64>) -> Self {
        let mut vm = Self::new();
        vm.fuel_budget = fuel;
        vm.mem_budget = memory;
        vm
    }

    /// Charges `v`'s heap cost against the memory budget; errors when the
    /// allocation would exceed it. Shared with the JIT executor so both
    /// tiers exhaust a given budget at the same allocation.
    #[inline]
    pub(crate) fn charge_alloc(&mut self, v: &Value) -> Result<()> {
        if let Some(budget) = self.mem_budget {
            let cost = heap_cost(v);
            if cost > self.mem_left {
                return Err(Error::MemoryExhausted { budget });
            }
            self.mem_left -= cost;
        }
        Ok(())
    }

    /// Executes a compiled program, returning the value of its final
    /// top-level expression statement (or [`Value::Nil`]).
    ///
    /// # Errors
    /// [`Error::Runtime`] diagnostics.
    pub fn run(&mut self, compiled: &Compiled) -> Result<Value> {
        self.start(compiled, None, None)
    }

    /// Executes a compiled program with the JIT tier enabled: hot
    /// functions (including `main` itself) tier up to compiled register IR
    /// and deoptimize back to the VM on entry-guard failure. Values,
    /// errors, fuel accounting, and memory accounting are bit-identical to
    /// [`Vm::run`] on the same (fused) bytecode.
    ///
    /// # Errors
    /// [`Error::Runtime`] diagnostics, identically to [`Vm::run`].
    pub fn run_jit(&mut self, compiled: &Compiled, jit: &crate::jit::Jit) -> Result<Value> {
        self.start(compiled, Some(jit), None)
    }

    /// Executes like [`Vm::run`] (or [`Vm::run_jit`] when `jit` is given),
    /// but treats the fuel budget as a first slice: when it is spent,
    /// `refill` is asked for more. `Some(n)` raises the limit by `n` and
    /// execution continues in place; `None` stops the run with
    /// [`Error::FuelExhausted`] carrying the total limit reached. A run
    /// whose grants add up to `q` therefore ends exactly as one run under
    /// [`Vm::with_fuel`]`(q)` does. The hook is never called without a
    /// fuel budget, and one that keeps granting `Some(0)` never returns.
    ///
    /// # Errors
    /// As [`Vm::run`].
    pub fn run_with_refill(
        &mut self,
        compiled: &Compiled,
        jit: Option<&crate::jit::Jit>,
        refill: &mut dyn FnMut() -> Option<u64>,
    ) -> Result<Value> {
        self.start(compiled, jit, Some(refill))
    }

    fn start(
        &mut self,
        compiled: &Compiled,
        jit: Option<&crate::jit::Jit>,
        refill: Option<&mut dyn FnMut() -> Option<u64>>,
    ) -> Result<Value> {
        let mut fuel = Fuel {
            used: 0,
            limit: self.fuel_budget.unwrap_or(0),
            refill,
        };
        // Monomorphize the dispatch loop: the unfueled VM carries no fuel
        // branch at all, and the fueled VM charges whole basic blocks at
        // control transfers instead of testing an `Option` per instruction.
        if self.fuel_budget.is_some() {
            self.run_entry::<true>(compiled, jit, &mut fuel)
        } else {
            self.run_entry::<false>(compiled, jit, &mut fuel)
        }
    }

    fn run_entry<const FUELED: bool>(
        &mut self,
        compiled: &Compiled,
        jit: Option<&crate::jit::Jit>,
        fuel: &mut Fuel<'_>,
    ) -> Result<Value> {
        self.stack.clear();
        self.result = Value::Nil;
        self.mem_left = self.mem_budget.unwrap_or(0);
        // `main` takes no arguments, so its entry guards always pass and
        // it can run jitted top to bottom.
        if let Some(j) = jit {
            if let Some(code) = j.tier_up(compiled, compiled.main, &[]) {
                crate::jit::exec::exec_fn::<FUELED>(
                    self,
                    compiled,
                    j,
                    &code,
                    Vec::new(),
                    1,
                    1,
                    fuel,
                )?;
                return Ok(std::mem::take(&mut self.result));
            }
        }
        let main = &compiled.funcs[compiled.main];
        self.stack.resize(main.n_slots as usize, Value::Nil);
        let first = Frame {
            func: compiled.main,
            ip: 0,
            base: 0,
        };
        self.run_loop::<FUELED>(compiled, jit, first, 0, 0, fuel)?;
        Ok(std::mem::take(&mut self.result))
    }

    /// Runs one function call as a VM sub-loop on behalf of jitted code
    /// (cold or guard-failed callees), returning the call's value.
    /// `caller_depth` counts every live frame (VM and JIT) below the
    /// callee, so the recursion limit matches [`Vm::run`] exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_call<const FUELED: bool>(
        &mut self,
        compiled: &Compiled,
        jit: Option<&crate::jit::Jit>,
        fidx: usize,
        args: Vec<Value>,
        caller_depth: usize,
        jit_depth: usize,
        fuel: &mut Fuel<'_>,
    ) -> Result<Value> {
        let callee = &compiled.funcs[fidx];
        debug_assert_eq!(
            callee.arity as usize,
            args.len(),
            "arity checked at compile time"
        );
        let new_base = self.stack.len();
        self.stack.extend(args);
        self.stack
            .resize(new_base + callee.n_slots as usize, Value::Nil);
        let first = Frame {
            func: fidx,
            ip: 0,
            base: new_base,
        };
        self.run_loop::<FUELED>(compiled, jit, first, caller_depth, jit_depth, fuel)
    }

    /// The frames loop shared by plain runs and JIT deopt sub-loops.
    /// Returns the value produced when the entry frame returns; its
    /// operand stack is fully unwound to where it started.
    ///
    /// Fuel accounting (compiled out when `FUELED` is false): straight-
    /// line instructions are charged in one batch at every control
    /// transfer, counting `ip - run_start` dispatches. Total accounting
    /// is exact — the limit is crossed iff the program needs more than
    /// `limit` instructions — but detection may overshoot by at most
    /// one basic block.
    #[allow(clippy::too_many_lines)]
    fn run_loop<const FUELED: bool>(
        &mut self,
        compiled: &Compiled,
        jit: Option<&crate::jit::Jit>,
        first: Frame,
        depth_offset: usize,
        jit_depth: usize,
        fuel: &mut Fuel<'_>,
    ) -> Result<Value> {
        let mut frames = vec![first];
        let mut run_start: usize = 0;

        'frames: while let Some(frame) = frames.last_mut() {
            let func = &compiled.funcs[frame.func];
            let code = &func.code;
            // Hot loop: local copies of the frame cursor.
            let mut ip = frame.ip;
            let base = frame.base;
            if FUELED {
                run_start = ip;
            }
            macro_rules! charge {
                () => {
                    if FUELED {
                        fuel.charge((ip - run_start) as u64)?;
                    }
                };
            }
            loop {
                debug_assert!(ip < code.len(), "ip ran off the end of {}", func.name);
                let op = code[ip];
                ip += 1;
                match op {
                    Op::Const(i) => self.stack.push(func.consts[i as usize].clone()),
                    Op::Nil => self.stack.push(Value::Nil),
                    Op::True => self.stack.push(Value::Bool(true)),
                    Op::False => self.stack.push(Value::Bool(false)),
                    Op::LoadLocal(i) => {
                        let v = self.stack[base + i as usize].clone();
                        self.stack.push(v);
                    }
                    Op::StoreLocal(i) => {
                        let v = self.pop();
                        self.stack[base + i as usize] = v;
                    }
                    Op::Bin(op) => {
                        let r = self.pop();
                        let l = self.pop();
                        // Fast path for the overwhelmingly common case.
                        let v = if let (Value::Num(a), Value::Num(b), true) =
                            (&l, &r, matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul))
                        {
                            match op {
                                BinOp::Add => Value::Num(a + b),
                                BinOp::Sub => Value::Num(a - b),
                                _ => Value::Num(a * b),
                            }
                        } else {
                            // Only the slow path can allocate (string
                            // concat); the numeric fast path stays free.
                            let v =
                                binop(op, &l, &r).map_err(|e| e.with_line(func.lines[ip - 1]))?;
                            self.charge_alloc(&v)?;
                            v
                        };
                        self.stack.push(v);
                    }
                    Op::Neg => {
                        let v = self.pop();
                        self.stack.push(Value::Num(
                            -v.as_num("unary `-`")
                                .map_err(|e| e.with_line(func.lines[ip - 1]))?,
                        ));
                    }
                    Op::Not => {
                        let v = self.pop();
                        self.stack.push(Value::Bool(!v.truthy()));
                    }
                    Op::Jump(t) => {
                        charge!();
                        ip = t as usize;
                        if FUELED {
                            run_start = ip;
                        }
                    }
                    Op::JumpIfFalse(t) => {
                        charge!();
                        let v = self.pop();
                        if !v.truthy() {
                            ip = t as usize;
                        }
                        if FUELED {
                            run_start = ip;
                        }
                    }
                    Op::JumpIfFalsePeek(t) => {
                        charge!();
                        if !self.peek().truthy() {
                            ip = t as usize;
                        }
                        if FUELED {
                            run_start = ip;
                        }
                    }
                    Op::JumpIfTruePeek(t) => {
                        charge!();
                        if self.peek().truthy() {
                            ip = t as usize;
                        }
                        if FUELED {
                            run_start = ip;
                        }
                    }

                    Op::CallFn(fidx, argc) => {
                        charge!();
                        if depth_offset + frames.len() >= MAX_FRAMES {
                            return Err(Error::runtime(format!(
                                "call depth exceeded {MAX_FRAMES} (runaway recursion?)"
                            ))
                            .with_line(func.lines[ip - 1]));
                        }
                        // Tier-up hook: count the call and, when the callee
                        // is hot, compiled, and its entry guards pass, run
                        // it jitted instead of pushing a VM frame.
                        if let Some(j) = jit {
                            if let Some(v) = crate::jit::exec::vm_call_hook::<FUELED>(
                                self,
                                compiled,
                                j,
                                fidx as usize,
                                argc as usize,
                                depth_offset + frames.len(),
                                jit_depth,
                                fuel,
                            )? {
                                self.stack.push(v);
                                if FUELED {
                                    run_start = ip;
                                }
                                continue;
                            }
                        }
                        let callee = &compiled.funcs[fidx as usize];
                        debug_assert_eq!(callee.arity, argc, "arity checked at compile time");
                        let new_base = self.stack.len() - argc as usize;
                        // Reserve the callee's non-parameter slots.
                        self.stack
                            .resize(new_base + callee.n_slots as usize, Value::Nil);
                        // Save our cursor, switch frames.
                        frames.last_mut().expect("current frame exists").ip = ip;
                        frames.push(Frame {
                            func: fidx as usize,
                            ip: 0,
                            base: new_base,
                        });
                        continue 'frames;
                    }
                    Op::CallBuiltin(bidx, argc) => {
                        let name = builtins::NAMES[bidx as usize];
                        let f = builtins::lookup(name).expect("index from compiler");
                        let at = self.stack.len() - argc as usize;
                        let v =
                            f(&self.stack[at..]).map_err(|e| e.with_line(func.lines[ip - 1]))?;
                        // Builtins like `fill`/`zeros` allocate their result.
                        self.charge_alloc(&v)?;
                        self.stack.truncate(at);
                        self.stack.push(v);
                    }
                    Op::Ret | Op::RetNil => {
                        charge!();
                        let v = if op == Op::Ret {
                            self.pop()
                        } else {
                            Value::Nil
                        };
                        self.stack.truncate(base);
                        frames.pop();
                        if frames.is_empty() {
                            return Ok(v);
                        }
                        self.stack.push(v);
                        continue 'frames;
                    }
                    Op::MakeArray(n) => {
                        let at = self.stack.len() - n as usize;
                        let items: Vec<Value> = self.stack.split_off(at);
                        let v = Value::array(items);
                        self.charge_alloc(&v)?;
                        self.stack.push(v);
                    }
                    Op::IndexGet => {
                        let i = self.pop();
                        let b = self.pop();
                        self.stack
                            .push(index_get(&b, &i).map_err(|e| e.with_line(func.lines[ip - 1]))?);
                    }
                    Op::IndexSet => {
                        let v = self.pop();
                        let i = self.pop();
                        let b = self.pop();
                        index_set(&b, &i, v).map_err(|e| e.with_line(func.lines[ip - 1]))?;
                    }
                    Op::Pop => {
                        self.pop();
                    }
                    Op::SetResult => {
                        self.result = self.pop();
                    }

                    // Superinstructions ([`crate::peephole`]). Each fast
                    // path bails to the canonical shared-semantics helper
                    // on anything unusual, so values, error messages, and
                    // evaluation order match the plain opcode sequences
                    // exactly.
                    Op::LoadLocal2(a, b) => {
                        let va = self.stack[base + a as usize].clone();
                        let vb = self.stack[base + b as usize].clone();
                        self.stack.push(va);
                        self.stack.push(vb);
                    }
                    Op::LoadLocalConst(a, c) => {
                        let va = self.stack[base + a as usize].clone();
                        self.stack.push(va);
                        self.stack.push(func.consts[c as usize].clone());
                    }
                    Op::BinLL(bop, a, b) => {
                        let l = &self.stack[base + a as usize];
                        let r = &self.stack[base + b as usize];
                        let v = match bin_fast(bop, l, r) {
                            Some(v) => v,
                            None => {
                                let v = binop(bop, l, r)
                                    .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                                self.charge_alloc(&v)?;
                                v
                            }
                        };
                        self.stack.push(v);
                    }
                    Op::BinLC(bop, a, c) => {
                        let l = &self.stack[base + a as usize];
                        let r = &func.consts[c as usize];
                        let v = match bin_fast(bop, l, r) {
                            Some(v) => v,
                            None => {
                                let v = binop(bop, l, r)
                                    .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                                self.charge_alloc(&v)?;
                                v
                            }
                        };
                        self.stack.push(v);
                    }
                    Op::BinC(bop, c) => {
                        let l = self.pop();
                        let r = &func.consts[c as usize];
                        let v = match bin_fast(bop, &l, r) {
                            Some(v) => v,
                            None => {
                                let v = binop(bop, &l, r)
                                    .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                                self.charge_alloc(&v)?;
                                v
                            }
                        };
                        self.stack.push(v);
                    }
                    Op::AddConstToLocal(a, c) => {
                        let slot = base + a as usize;
                        let v = match (&self.stack[slot], &func.consts[c as usize]) {
                            (Value::Num(x), Value::Num(n)) => Value::Num(x + n),
                            (l, r) => {
                                let v = binop(BinOp::Add, l, r)
                                    .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                                self.charge_alloc(&v)?;
                                v
                            }
                        };
                        self.stack[slot] = v;
                    }
                    Op::IncLocal(a) => {
                        let slot = base + a as usize;
                        if let Value::Num(x) = self.stack[slot] {
                            self.stack[slot] = Value::Num(x + 1.0);
                        } else {
                            let v = binop(BinOp::Add, &self.stack[slot], &Value::Num(1.0))
                                .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                            self.stack[slot] = v;
                        }
                    }
                    Op::AddStackToLocal(a) => {
                        let v = self.pop();
                        let slot = base + a as usize;
                        let nv = match (&self.stack[slot], &v) {
                            (Value::Num(x), Value::Num(y)) => Value::Num(x + y),
                            (l, r) => {
                                let nv = binop(BinOp::Add, l, r)
                                    .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                                self.charge_alloc(&nv)?;
                                nv
                            }
                        };
                        self.stack[slot] = nv;
                    }
                    Op::JumpIfNotCmp(cmp, t) => {
                        let r = self.pop();
                        let l = self.pop();
                        let v = match bin_fast(cmp, &l, &r) {
                            Some(v) => v,
                            None => {
                                binop(cmp, &l, &r).map_err(|e| e.with_line(func.lines[ip - 1]))?
                            }
                        };
                        charge!();
                        if !v.truthy() {
                            ip = t as usize;
                        }
                        if FUELED {
                            run_start = ip;
                        }
                    }
                    Op::IndexGetF(a, b) => {
                        let bval = &self.stack[base + a as usize];
                        let ival = &self.stack[base + b as usize];
                        let fast = match (bval, ival) {
                            (Value::FloatArray(cell), Value::Num(n))
                                if *n >= 0.0 && n.fract() == 0.0 && n.is_finite() =>
                            {
                                cell.borrow().get(*n as usize).map(|&x| Value::Num(x))
                            }
                            _ => None,
                        };
                        let v = match fast {
                            Some(v) => v,
                            None => index_get(bval, ival)
                                .map_err(|e| e.with_line(func.lines[ip - 1]))?,
                        };
                        self.stack.push(v);
                    }
                    Op::IndexSetF(a, b) => {
                        let v = self.pop();
                        let bval = &self.stack[base + a as usize];
                        let ival = &self.stack[base + b as usize];
                        let done = match (bval, ival, &v) {
                            (Value::FloatArray(cell), Value::Num(n), Value::Num(x))
                                if *n >= 0.0 && n.fract() == 0.0 && n.is_finite() =>
                            {
                                let mut arr = cell.borrow_mut();
                                let idx = *n as usize;
                                if idx < arr.len() {
                                    arr[idx] = *x;
                                    true
                                } else {
                                    false
                                }
                            }
                            _ => false,
                        };
                        if !done {
                            index_set(bval, ival, v)
                                .map_err(|e| e.with_line(func.lines[ip - 1]))?;
                        }
                    }
                }
            }
        }
        // Unreachable: the entry frame always exits through `Ret`/`RetNil`.
        Ok(Value::Nil)
    }

    /// The top `argc` operand-stack values (a pending call's arguments),
    /// used by the JIT tier to pick entry-guard specs.
    #[inline]
    pub(crate) fn top_args(&self, argc: usize) -> &[Value] {
        &self.stack[self.stack.len() - argc..]
    }

    /// Removes and returns the top `argc` operand-stack values.
    #[inline]
    pub(crate) fn take_args(&mut self, argc: usize) -> Vec<Value> {
        let at = self.stack.len() - argc;
        self.stack.split_off(at)
    }

    /// Stores the program-result register (the JIT's `SetResult`).
    #[inline]
    pub(crate) fn set_result(&mut self, v: Value) {
        self.result = v;
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.stack
            .pop()
            .expect("compiler guarantees stack discipline")
    }

    #[inline]
    fn peek(&self) -> &Value {
        self.stack
            .last()
            .expect("compiler guarantees stack discipline")
    }
}

/// Numeric fast path shared by the superinstructions. Returns `None` for
/// anything the canonical [`binop`] must handle — non-numeric operands,
/// zero divisors (a runtime error), and NaN comparisons (which are runtime
/// errors, not `false`). Shared with the JIT executor for exact parity.
#[inline]
pub(crate) fn bin_fast(op: BinOp, l: &Value, r: &Value) -> Option<Value> {
    let (Value::Num(a), Value::Num(b)) = (l, r) else {
        return None;
    };
    Some(match op {
        BinOp::Add => Value::Num(a + b),
        BinOp::Sub => Value::Num(a - b),
        BinOp::Mul => Value::Num(a * b),
        BinOp::Div => {
            if *b == 0.0 {
                return None;
            }
            Value::Num(a / b)
        }
        BinOp::Mod => {
            if *b == 0.0 {
                return None;
            }
            Value::Num(a % b)
        }
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = a.partial_cmp(b)?;
            Value::Bool(match op {
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                _ => ord != std::cmp::Ordering::Less,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::parser::parse;

    fn run(src: &str) -> Result<Value> {
        let c = compile(&parse(src).expect("test programs parse"))?;
        Vm::new().run(&c)
    }

    #[test]
    fn basics() {
        assert_eq!(run("").unwrap(), Value::Nil);
        assert_eq!(run("1 + 2 * 3").unwrap(), Value::Num(7.0));
        assert_eq!(run("let x = 4; x * x").unwrap(), Value::Num(16.0));
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            run("if 2 > 1 { 10 } else { 20 }").unwrap(),
            Value::Num(10.0)
        );
        assert_eq!(
            run("let s = 0; let i = 0; while i < 100 { s = s + i; i = i + 1; } s").unwrap(),
            Value::Num(4950.0)
        );
        assert_eq!(
            run("let s = 0; for i in range(0, 100) { s = s + i; } s").unwrap(),
            Value::Num(4950.0)
        );
    }

    #[test]
    fn for_with_break_and_continue() {
        assert_eq!(
            run("let s = 0; for i in range(0, 100) { if i == 10 { break; } if i % 2 == 0 { continue; } s = s + i; } s")
                .unwrap(),
            Value::Num(25.0)
        );
        // While at instruction offset zero (regression: continue target 0).
        assert_eq!(run("while true { break; } 5").unwrap(), Value::Num(5.0));
    }

    #[test]
    fn nested_for_continue_targets_inner_loop() {
        assert_eq!(
            run("let s = 0; for i in range(0, 3) { for j in range(0, 3) { if j == 1 { continue; } s = s + 1; } } s")
                .unwrap(),
            Value::Num(6.0)
        );
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(
            run("fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } fib(15)")
                .unwrap(),
            Value::Num(610.0)
        );
        assert_eq!(
            run("fn twice(x) { return x * 2; } twice(twice(3))").unwrap(),
            Value::Num(12.0)
        );
        let e = run("fn inf(n) { return inf(n); } inf(1)").unwrap_err();
        assert!(e.to_string().contains("call depth"), "{e}");
    }

    #[test]
    fn function_without_return_yields_nil() {
        assert_eq!(run("fn f() { 1; 2; } f()").unwrap(), Value::Nil);
    }

    #[test]
    fn builtins_and_arrays() {
        assert_eq!(run("len([1, 2, 3])").unwrap(), Value::Num(3.0));
        assert_eq!(
            run("let a = zeros(3); a[1] = 5; vsum(a)").unwrap(),
            Value::Num(5.0)
        );
        assert_eq!(
            run("let a = [1, 2]; push(a, 3); a[2]").unwrap(),
            Value::Num(3.0)
        );
    }

    #[test]
    fn runtime_errors_surface() {
        assert!(run("1 / 0").is_err());
        assert!(run("let a = [1]; a[3]").is_err());
        assert!(run("sqrt(\"x\")").is_err());
        assert!(run("-\"s\"").is_err());
    }

    #[test]
    fn runtime_errors_carry_the_failing_line() {
        let err = run("let a = 1;\nlet b = a / 0;\nb").unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        let err = run("let a = [1];\n\na[3]").unwrap_err();
        assert!(err.to_string().starts_with("line 3:"), "{err}");
        let err = run("let x = 2;\nsqrt(\"no\");").unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        let err = run("let a = [1];\na[0] = \"x\" * 2;").unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
    }

    #[test]
    fn stack_is_clean_after_calls_in_loops() {
        // If the stack leaked per iteration this would OOM or misbehave.
        assert_eq!(
            run("fn id(x) { return x; } let s = 0; for i in range(0, 10000) { s = s + id(1); } s")
                .unwrap(),
            Value::Num(10_000.0)
        );
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        let c = compile(&parse("while true { }").unwrap()).unwrap();
        let err = Vm::with_fuel(10_000).run(&c).unwrap_err();
        assert!(
            matches!(err, Error::FuelExhausted { budget: 10_000 }),
            "{err}"
        );
        // A generous budget does not change results, and resets per run.
        let c =
            compile(&parse("let s = 0; for i in range(0, 100) { s = s + i; } s").unwrap()).unwrap();
        let mut vm = Vm::with_fuel(10_000);
        assert_eq!(vm.run(&c).unwrap(), Value::Num(4950.0));
        assert_eq!(vm.run(&c).unwrap(), Value::Num(4950.0));
        // Too small a budget fails even for terminating programs.
        let err = Vm::with_fuel(5).run(&c).unwrap_err();
        assert!(matches!(err, Error::FuelExhausted { .. }), "{err}");
    }

    #[test]
    fn memory_budget_bounds_allocation() {
        let c = compile(&parse("let a = zeros(1000); len(a)").unwrap()).unwrap();
        let err = Vm::with_limits(None, Some(4_000)).run(&c).unwrap_err();
        assert!(
            matches!(err, Error::MemoryExhausted { budget: 4_000 }),
            "{err}"
        );
        // A generous budget does not change results, and resets per run.
        let mut vm = Vm::with_limits(None, Some(16_000));
        assert_eq!(vm.run(&c).unwrap(), Value::Num(1000.0));
        assert_eq!(vm.run(&c).unwrap(), Value::Num(1000.0));
        // Array literals and string concatenation are charged too.
        let c = compile(
            &parse("let i = 0; while i < 100 { let a = [1, 2, 3]; i = i + 1; } i").unwrap(),
        )
        .unwrap();
        let err = Vm::with_limits(None, Some(1_000)).run(&c).unwrap_err();
        assert!(matches!(err, Error::MemoryExhausted { .. }), "{err}");
        let c = compile(
            &parse(r#"let s = ""; let i = 0; while i < 64 { s = s + "abcdefgh"; i = i + 1; } s"#)
                .unwrap(),
        )
        .unwrap();
        let err = Vm::with_limits(None, Some(2_000)).run(&c).unwrap_err();
        assert!(matches!(err, Error::MemoryExhausted { .. }), "{err}");
        // Scalar-only programs run under a zero budget.
        let c = compile(&parse("let i = 0; while i < 1000 { i = i + 1; } i").unwrap()).unwrap();
        assert_eq!(
            Vm::with_limits(None, Some(0)).run(&c).unwrap(),
            Value::Num(1000.0)
        );
    }

    #[test]
    fn vm_is_reusable() {
        let c1 = compile(&parse("1 + 1").unwrap()).unwrap();
        let c2 = compile(&parse("2 + 2").unwrap()).unwrap();
        let mut vm = Vm::new();
        assert_eq!(vm.run(&c1).unwrap(), Value::Num(2.0));
        assert_eq!(vm.run(&c2).unwrap(), Value::Num(4.0));
        assert_eq!(vm.run(&c1).unwrap(), Value::Num(2.0));
    }
}
