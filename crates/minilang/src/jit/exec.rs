//! The compiled execution tier: runs [`JitFn`] register IR.
//!
//! Each jitted frame holds three dense register files (`f64`s, shared
//! float arrays, boxed [`Value`]s) on the host stack, so hot numeric code
//! never touches the VM's boxed operand stack. Semantics are kept
//! bit-identical to the fused VM by construction:
//!
//! * every slow or erroring path routes through the same canonical
//!   helpers the VM uses ([`bin_fast`], [`crate::value::binop`],
//!   [`crate::value::index_get`], …), with the same source lines;
//! * allocations charge [`Vm::charge_alloc`] at the same construction
//!   points;
//! * fuel is charged at exactly the bytecode's control-transfer points —
//!   block weights replicate the VM's `ip - run_start` batches, and
//!   fall-through weights accumulate in a pending counter just as the VM
//!   keeps counting across non-transfer instructions.
//!
//! Calls tier up callees through [`Jit::tier_up`]; a callee whose entry
//! guards fail (or whose bytecode the translator rejected) deoptimizes to
//! a VM sub-loop via [`Vm::run_call`], which shares the same depth budget
//! and fuel counter.

use std::cell::RefCell;
use std::rc::Rc;

use crate::builtins;
use crate::bytecode::Compiled;
use crate::error::{Error, Result};
use crate::value::{binop, index_get, index_set, Value};
use crate::vm::{bin_fast, Fuel, Vm, MAX_FRAMES};

use super::ir::{Dst, GOpnd, Instr, JitFn, ParamLoc, Term};
use super::Jit;

/// Jitted frames recurse on the host stack (unlike VM frames, which live
/// on the heap). Beyond this depth, calls run through the heap-frame VM
/// loop instead, keeping deep recursion safe in debug builds' ~2 MB test
/// threads while still bounding total depth by [`MAX_FRAMES`].
pub(crate) const JIT_HOST_CAP: usize = 200;

/// Unboxed mirror of [`bin_fast`]'s numeric comparison semantics: `Eq`/
/// `Ne` compare directly (NaN yields `false`/`true` without error,
/// exactly like the boxed path), ordered comparisons go through
/// `partial_cmp` and return `None` on NaN so the caller can raise the
/// canonical error through [`binop`]. Any non-comparison op returns
/// `None` for the same reason.
#[inline]
fn cmpf(op: crate::ast::BinOp, a: f64, b: f64) -> Option<bool> {
    use crate::ast::BinOp;
    use std::cmp::Ordering::{Greater, Less};
    match op {
        BinOp::Eq => Some(a == b),
        BinOp::Ne => Some(a != b),
        BinOp::Lt => Some(a.partial_cmp(&b)? == Less),
        BinOp::Le => Some(a.partial_cmp(&b)? != Greater),
        BinOp::Gt => Some(a.partial_cmp(&b)? == Greater),
        BinOp::Ge => Some(a.partial_cmp(&b)? != Less),
        _ => None,
    }
}

/// Bit-exact strength-reduced `%`. When both operands are nonnegative
/// integers that round-trip through `u64` (nonzero divisor), the integer
/// remainder equals IEEE `fmod` exactly: `fmod` of two representable
/// values is the mathematically exact remainder, and the exact remainder
/// of two representable integers is itself representable, so converting
/// `xi % yi` back to `f64` is lossless. A `-0.0` dividend falls back
/// (`fmod` returns `-0.0` there, the cast would lose the sign); every
/// other shape falls back to the libm call. Index-style and LCG-style
/// script arithmetic hits the fast path, which is several times cheaper
/// than `fmod`.
#[inline]
fn fmod_fast(x: f64, y: f64) -> f64 {
    let xi = x as u64;
    let yi = y as u64;
    #[allow(clippy::cast_precision_loss)] // exact: remainder < yi, which round-trips
    if xi as f64 == x && yi as f64 == y && yi != 0 && x.is_sign_positive() {
        (xi % yi) as f64
    } else {
        x % y
    }
}

/// One arithmetic step of an [`Instr::FFuse`] pair, with the VM's exact
/// zero-divisor errors on the op's own source line.
#[inline]
fn fbin(op: crate::ast::BinOp, x: f64, y: f64, line: u32) -> Result<f64> {
    use crate::ast::BinOp;
    match op {
        BinOp::Add => Ok(x + y),
        BinOp::Sub => Ok(x - y),
        BinOp::Mul => Ok(x * y),
        BinOp::Div => {
            if y == 0.0 {
                Err(Error::runtime("division by zero").with_line(line))
            } else {
                Ok(x / y)
            }
        }
        BinOp::Mod => {
            if y == 0.0 {
                Err(Error::runtime("modulo by zero").with_line(line))
            } else {
                Ok(fmod_fast(x, y))
            }
        }
        // The translator only fuses arithmetic ops.
        _ => Err(Error::runtime("jit: non-arithmetic op in ffuse (internal)")),
    }
}

/// Cheap exact-integer index check: accepts `i` iff it round-trips
/// through `usize` — the same set of indices the VM's
/// `i >= 0.0 && i.fract() == 0.0 && i.is_finite()` guard admits
/// (negative, fractional, NaN, and infinite values all fail the
/// round-trip; `-0.0` maps to index 0 either way). Everything rejected
/// falls back to the canonical helper for the exact error.
#[inline]
fn usize_index(i: f64) -> Option<usize> {
    let at = i as usize;
    #[allow(clippy::cast_precision_loss)] // the round-trip comparison is the point
    if at as f64 == i {
        Some(at)
    } else {
        None
    }
}

thread_local! {
    /// Placeholder for array registers before their first assignment.
    /// The translator's definite-assignment pass proves these are never
    /// read on any executed path; sharing one empty array makes frame
    /// setup allocation-free.
    static EMPTY_ARR: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
}

/// Dispatches a function call from jitted code: jit-to-jit when the
/// callee is hot, compiled, within the host-recursion cap, and its entry
/// guards pass; otherwise a VM sub-loop with identical semantics.
#[allow(clippy::too_many_arguments)]
fn call_fn<const FUELED: bool>(
    vm: &mut Vm,
    compiled: &Compiled,
    jit: &Jit,
    fidx: usize,
    args: Vec<Value>,
    caller_depth: usize,
    jit_depth: usize,
    fuel: &mut Fuel<'_>,
) -> Result<Value> {
    if let Some(code) = jit.tier_up(compiled, fidx, &args) {
        if !code.guards_pass(&args) {
            jit.note_deopt();
        } else if jit_depth < JIT_HOST_CAP {
            return exec_fn::<FUELED>(
                vm,
                compiled,
                jit,
                &code,
                args,
                caller_depth + 1,
                jit_depth + 1,
                fuel,
            );
        }
    }
    vm.run_call::<FUELED>(
        compiled,
        Some(jit),
        fidx,
        args,
        caller_depth,
        jit_depth,
        fuel,
    )
}

/// The VM's `CallFn` tier-up hook. Counts the call toward hotness and, if
/// the callee is ready and its guards pass against the pending arguments
/// on the operand stack, pops them and runs the call jitted, returning
/// `Some(value)`. Returns `None` to let the VM push a frame as usual.
/// `cur_depth` counts every live frame including the caller's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn vm_call_hook<const FUELED: bool>(
    vm: &mut Vm,
    compiled: &Compiled,
    jit: &Jit,
    fidx: usize,
    argc: usize,
    cur_depth: usize,
    jit_depth: usize,
    fuel: &mut Fuel<'_>,
) -> Result<Option<Value>> {
    let Some(code) = jit.tier_up(compiled, fidx, vm.top_args(argc)) else {
        return Ok(None);
    };
    if jit_depth >= JIT_HOST_CAP {
        return Ok(None);
    }
    if !code.guards_pass(vm.top_args(argc)) {
        jit.note_deopt();
        return Ok(None);
    }
    let args = vm.take_args(argc);
    exec_fn::<FUELED>(
        vm,
        compiled,
        jit,
        &code,
        args,
        cur_depth + 1,
        jit_depth + 1,
        fuel,
    )
    .map(Some)
}

/// Executes one compiled function. `cur_depth` counts every live frame
/// including this one; `jit_depth` counts only host-stack (jitted)
/// frames. The caller must have verified the entry guards.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn exec_fn<const FUELED: bool>(
    vm: &mut Vm,
    compiled: &Compiled,
    jit: &Jit,
    code: &JitFn,
    args: Vec<Value>,
    cur_depth: usize,
    jit_depth: usize,
    fuel: &mut Fuel<'_>,
) -> Result<Value> {
    jit.note_jit_call();
    let func = &compiled.funcs[code.fidx];
    let mut f = vec![0.0f64; code.n_f as usize];
    for &(r, k) in &code.fpool {
        f[r as usize] = k;
    }
    let mut g: Vec<Value> = vec![Value::Nil; code.n_g as usize];
    let mut a: Vec<Rc<RefCell<Vec<f64>>>> =
        EMPTY_ARR.with(|e| (0..code.n_a).map(|_| e.clone()).collect());
    debug_assert_eq!(
        args.len(),
        code.params.len(),
        "arity checked at compile time"
    );
    for (v, loc) in args.into_iter().zip(&code.params) {
        match (loc, v) {
            (ParamLoc::F(r), Value::Num(x)) => f[*r as usize] = x,
            (ParamLoc::A(r), Value::FloatArray(rc)) => a[*r as usize] = rc,
            (ParamLoc::G(r), v) => g[*r as usize] = v,
            // `guards_pass` rules these out; fail closed rather than
            // misinterpret a register.
            _ => return Err(Error::runtime("jit: entry guard violated (internal)")),
        }
    }

    // Reads an operand as a boxed `Value`.
    macro_rules! gval {
        ($o:expr) => {
            match $o {
                GOpnd::G(i) => g[*i as usize].clone(),
                GOpnd::F(i) => Value::Num(f[*i as usize]),
                GOpnd::A(i) => Value::FloatArray(a[*i as usize].clone()),
                GOpnd::K(i) => func.consts[*i as usize].clone(),
                GOpnd::Nil => Value::Nil,
                GOpnd::True => Value::Bool(true),
                GOpnd::False => Value::Bool(false),
            }
        };
    }

    // Fuel accumulated from fall-through blocks, charged at the next real
    // control transfer (mirrors the VM's `ip - run_start` batches).
    let mut pending: u64 = 0;
    let mut bi: u32 = 0;
    loop {
        let block = &code.blocks[bi as usize];
        macro_rules! charge {
            () => {
                if FUELED {
                    let due = pending + u64::from(block.weight);
                    #[allow(unused_assignments)] // dead after a `Ret` charge
                    {
                        pending = 0;
                    }
                    fuel.charge(due)?;
                }
            };
        }
        for ins in &block.instrs {
            match ins {
                Instr::FMov { d, s } => f[*d as usize] = f[*s as usize],
                Instr::FAdd { d, a, b } => f[*d as usize] = f[*a as usize] + f[*b as usize],
                Instr::FSub { d, a, b } => f[*d as usize] = f[*a as usize] - f[*b as usize],
                Instr::FMul { d, a, b } => f[*d as usize] = f[*a as usize] * f[*b as usize],
                Instr::FDiv { d, a, b, line } => {
                    let y = f[*b as usize];
                    if y == 0.0 {
                        return Err(Error::runtime("division by zero").with_line(*line));
                    }
                    f[*d as usize] = f[*a as usize] / y;
                }
                Instr::FMod { d, a, b, line } => {
                    let y = f[*b as usize];
                    if y == 0.0 {
                        return Err(Error::runtime("modulo by zero").with_line(*line));
                    }
                    f[*d as usize] = fmod_fast(f[*a as usize], y);
                }
                Instr::FNeg { d, s } => f[*d as usize] = -f[*s as usize],
                Instr::FFuse {
                    op1,
                    op2,
                    d,
                    a,
                    b,
                    c,
                    rev,
                    l1,
                    l2,
                } => {
                    let t = fbin(*op1, f[*a as usize], f[*b as usize], *l1)?;
                    let cv = f[*c as usize];
                    let (x, y) = if *rev { (cv, t) } else { (t, cv) };
                    f[*d as usize] = fbin(*op2, x, y, *l2)?;
                }
                Instr::AGet { d, arr, idx, line } => {
                    let i = f[*idx as usize];
                    let rc = &a[*arr as usize];
                    let fast = match usize_index(i) {
                        Some(at) => rc.borrow().get(at).copied(),
                        None => None,
                    };
                    match fast {
                        Some(x) => f[*d as usize] = x,
                        None => {
                            // Route through the canonical helper for the
                            // exact out-of-range/invalid-index error.
                            let v = index_get(&Value::FloatArray(rc.clone()), &Value::Num(i))
                                .map_err(|e| e.with_line(*line))?;
                            match v {
                                Value::Num(x) => f[*d as usize] = x,
                                _ => {
                                    return Err(Error::runtime(
                                        "jit: float-array read produced a non-number (internal)",
                                    ))
                                }
                            }
                        }
                    }
                }
                Instr::ASet {
                    arr,
                    idx,
                    val,
                    line,
                } => {
                    let i = f[*idx as usize];
                    let x = f[*val as usize];
                    let rc = &a[*arr as usize];
                    let done = match usize_index(i) {
                        Some(at) => {
                            let mut items = rc.borrow_mut();
                            if at < items.len() {
                                items[at] = x;
                                true
                            } else {
                                false
                            }
                        }
                        None => false,
                    };
                    if !done {
                        index_set(
                            &Value::FloatArray(rc.clone()),
                            &Value::Num(i),
                            Value::Num(x),
                        )
                        .map_err(|e| e.with_line(*line))?;
                    }
                }
                Instr::AMov { d, s } => a[*d as usize] = a[*s as usize].clone(),
                Instr::GMov { d, s } => {
                    let v = gval!(s);
                    g[*d as usize] = v;
                }
                Instr::GBin { op, d, l, r, line } => {
                    let lv = gval!(l);
                    let rv = gval!(r);
                    let v = match bin_fast(*op, &lv, &rv) {
                        Some(v) => v,
                        None => {
                            let v = binop(*op, &lv, &rv).map_err(|e| e.with_line(*line))?;
                            vm.charge_alloc(&v)?;
                            v
                        }
                    };
                    g[*d as usize] = v;
                }
                Instr::GCmpF {
                    op,
                    d,
                    a: x,
                    b: y,
                    line,
                } => {
                    let xv = f[*x as usize];
                    let yv = f[*y as usize];
                    let v = match cmpf(*op, xv, yv) {
                        Some(t) => Value::Bool(t),
                        // NaN comparison: the canonical error, same line.
                        None => binop(*op, &Value::Num(xv), &Value::Num(yv))
                            .map_err(|e| e.with_line(*line))?,
                    };
                    g[*d as usize] = v;
                }
                Instr::GNeg { d, s, line } => {
                    let v = gval!(s);
                    f[*d as usize] = -v.as_num("unary `-`").map_err(|e| e.with_line(*line))?;
                }
                Instr::GNot { d, s } => {
                    let v = gval!(s);
                    g[*d as usize] = Value::Bool(!v.truthy());
                }
                Instr::GIdxGet { d, arr, idx, line } => {
                    let av = gval!(arr);
                    let iv = gval!(idx);
                    let v = index_get(&av, &iv).map_err(|e| e.with_line(*line))?;
                    g[*d as usize] = v;
                }
                Instr::GIdxSet {
                    arr,
                    idx,
                    val,
                    line,
                } => {
                    let av = gval!(arr);
                    let iv = gval!(idx);
                    let vv = gval!(val);
                    index_set(&av, &iv, vv).map_err(|e| e.with_line(*line))?;
                }
                Instr::GArr { d, items } => {
                    let vals: Vec<Value> = items.iter().map(|o| gval!(o)).collect();
                    let v = Value::array(vals);
                    vm.charge_alloc(&v)?;
                    g[*d as usize] = v;
                }
                Instr::CallB { d, b, args, line } => {
                    let name = builtins::NAMES[*b as usize];
                    let bf = builtins::lookup(name).expect("index from compiler");
                    let argv: Vec<Value> = args.iter().map(|o| gval!(o)).collect();
                    let v = bf(&argv).map_err(|e| e.with_line(*line))?;
                    vm.charge_alloc(&v)?;
                    match d {
                        Dst::F(r) => match v {
                            Value::Num(x) => f[*r as usize] = x,
                            _ => {
                                return Err(Error::runtime(
                                    "jit: builtin return type violated (internal)",
                                ))
                            }
                        },
                        Dst::A(r) => match v {
                            Value::FloatArray(rc) => a[*r as usize] = rc,
                            _ => {
                                return Err(Error::runtime(
                                    "jit: builtin return type violated (internal)",
                                ))
                            }
                        },
                        Dst::G(r) => g[*r as usize] = v,
                        Dst::None => {}
                    }
                }
                Instr::SetRes { s } => {
                    let v = gval!(s);
                    vm.set_result(v);
                }
            }
        }
        match &block.term {
            Term::Jump { to } => {
                charge!();
                bi = *to;
            }
            Term::BrFalse {
                c,
                on_false,
                on_next,
            } => {
                charge!();
                let v = gval!(c);
                bi = if v.truthy() { *on_next } else { *on_false };
            }
            Term::BrTrue {
                c,
                on_true,
                on_next,
            } => {
                charge!();
                let v = gval!(c);
                bi = if v.truthy() { *on_true } else { *on_next };
            }
            Term::BrCmpF {
                op,
                a: x,
                b: y,
                on_false,
                on_next,
                line,
            } => {
                // Compute first (NaN comparisons error before the fuel
                // check, like the VM's `JumpIfNotCmp`), then charge.
                let xv = f[*x as usize];
                let yv = f[*y as usize];
                let t = match cmpf(*op, xv, yv) {
                    Some(t) => t,
                    None => binop(*op, &Value::Num(xv), &Value::Num(yv))
                        .map_err(|e| e.with_line(*line))?
                        .truthy(),
                };
                charge!();
                bi = if t { *on_next } else { *on_false };
            }
            Term::BrCmpG {
                op,
                l,
                r,
                on_false,
                on_next,
                line,
            } => {
                let lv = gval!(l);
                let rv = gval!(r);
                let v = match bin_fast(*op, &lv, &rv) {
                    Some(v) => v,
                    None => binop(*op, &lv, &rv).map_err(|e| e.with_line(*line))?,
                };
                charge!();
                bi = if v.truthy() { *on_next } else { *on_false };
            }
            Term::Call {
                fidx,
                args,
                d,
                to,
                line,
            } => {
                charge!();
                if cur_depth >= MAX_FRAMES {
                    return Err(Error::runtime(format!(
                        "call depth exceeded {MAX_FRAMES} (runaway recursion?)"
                    ))
                    .with_line(*line));
                }
                let argv: Vec<Value> = args.iter().map(|o| gval!(o)).collect();
                let v = call_fn::<FUELED>(
                    vm,
                    compiled,
                    jit,
                    *fidx as usize,
                    argv,
                    cur_depth,
                    jit_depth,
                    fuel,
                )?;
                match d {
                    Dst::A(r) => match v {
                        Value::FloatArray(rc) => a[*r as usize] = rc,
                        // `absint` proved this function returns a float
                        // array on every path; fail closed if violated.
                        _ => {
                            return Err(Error::runtime("jit: call return type violated (internal)"))
                        }
                    },
                    Dst::G(r) => g[*r as usize] = v,
                    Dst::F(_) => {
                        return Err(Error::runtime("jit: call cannot land in f-file (internal)"))
                    }
                    Dst::None => {}
                }
                bi = *to;
            }
            Term::Ret { v } => {
                charge!();
                return Ok(gval!(v));
            }
            Term::Fall { to } => {
                if FUELED {
                    pending += u64::from(block.weight);
                }
                bi = *to;
            }
        }
    }
}
