//! Bytecode peephole + superinstruction optimizer (the "fused VM" tier).
//!
//! Runs after [`crate::bytecode::compile`] and rewrites each function's
//! instruction stream: constant-pool deduplication, dead-code elimination
//! (`Jump`-to-next, side-effect-free push followed by `Pop`), typed
//! indexing fast paths ([`Op::IndexGetF`] / [`Op::IndexSetF`]) where a
//! float-array proof holds, and superinstruction fusion for the dominant
//! loop patterns ([`Op::LoadLocal2`], [`Op::LoadLocalConst`],
//! [`Op::BinLL`], [`Op::BinLC`], [`Op::BinC`], [`Op::AddConstToLocal`],
//! [`Op::IncLocal`], [`Op::AddStackToLocal`], [`Op::JumpIfNotCmp`]).
//!
//! Every rewrite is observably equivalent to the sequence it replaces —
//! same values, same error messages, same source lines on failures — which
//! the cross-tier proptests enforce. Fusion never crosses a basic-block
//! boundary: an instruction that is a jump target ("leader") can head a
//! fused window but never sit inside one.

use std::collections::HashMap;

use crate::absint::TypeFacts;
use crate::ast::BinOp;
use crate::builtins;
use crate::bytecode::{Compiled, CompiledFn, Op};
use crate::value::Value;

/// Which rewrites to apply; the ablation benchmarks toggle these.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Superinstruction fusion and typed indexing (the peephole proper).
    pub fuse: bool,
    /// Constant-pool deduplication.
    pub dedup_consts: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            fuse: true,
            dedup_consts: true,
        }
    }
}

/// Optimizes a compiled program with the default [`Options`] (everything
/// on). This is the pass the fused tier and the `rsc` CLI run by default.
#[must_use]
pub fn optimize(c: &Compiled) -> Compiled {
    optimize_with(c, Options::default())
}

/// Optimizes a compiled program with explicit [`Options`].
#[must_use]
pub fn optimize_with(c: &Compiled, opts: Options) -> Compiled {
    optimize_with_facts(c, opts, None)
}

/// Optimizes a compiled program with explicit [`Options`] and, optionally,
/// [`TypeFacts`] from the abstract interpreter ([`crate::absint::analyze`]).
/// The facts extend the syntactic float-array proof with an extra producer:
/// a call to a function whose return the fixpoint proved is always a
/// `FloatArray`, so strictly more `IndexGetF`/`IndexSetF` sites fuse.
#[must_use]
pub fn optimize_with_facts(c: &Compiled, opts: Options, facts: Option<&TypeFacts>) -> Compiled {
    let proven = if opts.fuse {
        proven_float_slots(c, facts)
    } else {
        vec![Default::default(); c.funcs.len()]
    };
    let funcs = c
        .funcs
        .iter()
        .zip(&proven)
        .map(|(f, slots)| {
            let mut f = f.clone();
            if opts.dedup_consts {
                dedup_consts(&mut f);
            }
            f = eliminate_dead(&f);
            if opts.fuse {
                f = fuse_indexing(&f, slots);
                f = fuse_accumulate(&f);
                f = fuse_windows(&f);
            }
            f
        })
        .collect();
    Compiled {
        funcs,
        main: c.main,
    }
}

// --- rebuild machinery --------------------------------------------------

/// Per-instruction rewrite decision for one pass.
enum Action {
    /// Copy the instruction through unchanged.
    Keep,
    /// Drop the instruction; jumps into it land on the next emitted one.
    Delete,
    /// Emit these `(op, line)` pairs instead of the instruction.
    Replace(Vec<(Op, u32)>),
}

/// Marks every jump target in `code`.
fn leaders(code: &[Op]) -> Vec<bool> {
    let mut l = vec![false; code.len() + 1];
    for t in code.iter().filter_map(|op| op.jump_target()) {
        l[t as usize] = true;
    }
    l
}

/// Applies a per-instruction `plan` to `f`, remapping every jump target
/// through the old-index → new-index map the rebuild induces.
fn rebuild(f: &CompiledFn, plan: Vec<Action>) -> CompiledFn {
    debug_assert_eq!(plan.len(), f.code.len());
    let mut code = Vec::with_capacity(f.code.len());
    let mut lines = Vec::with_capacity(f.code.len());
    let mut map = vec![0u32; f.code.len() + 1];
    for (i, action) in plan.into_iter().enumerate() {
        map[i] = code.len() as u32;
        match action {
            Action::Keep => {
                code.push(f.code[i]);
                lines.push(f.lines[i]);
            }
            Action::Delete => {}
            Action::Replace(ops) => {
                for (op, line) in ops {
                    code.push(op);
                    lines.push(line);
                }
            }
        }
    }
    map[f.code.len()] = code.len() as u32;
    for t in code.iter_mut().filter_map(Op::jump_target_mut) {
        *t = map[*t as usize];
    }
    CompiledFn {
        name: f.name.clone(),
        arity: f.arity,
        n_slots: f.n_slots,
        code,
        lines,
        consts: f.consts.clone(),
    }
}

// --- pass 1: constant-pool deduplication --------------------------------

/// Dedup key: numbers by bit pattern (so `0.0` / `-0.0` stay distinct and
/// NaN payloads merge only with themselves), strings by content. Values
/// the compiler never places in a pool keep their identity.
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Num(u64),
    Str(String),
    Unique(usize),
}

fn dedup_consts(f: &mut CompiledFn) {
    let mut first: HashMap<ConstKey, u16> = HashMap::new();
    let mut remap = vec![0u16; f.consts.len()];
    let mut kept: Vec<Value> = Vec::with_capacity(f.consts.len());
    for (i, v) in f.consts.iter().enumerate() {
        let key = match v {
            Value::Num(n) => ConstKey::Num(n.to_bits()),
            Value::Str(s) => ConstKey::Str(s.to_string()),
            _ => ConstKey::Unique(i),
        };
        remap[i] = *first.entry(key).or_insert_with(|| {
            kept.push(v.clone());
            (kept.len() - 1) as u16
        });
    }
    for op in &mut f.code {
        if let Op::Const(c) = op {
            *c = remap[*c as usize];
        }
    }
    f.consts = kept;
}

// --- pass 2: dead-code elimination --------------------------------------

/// Removes `Jump`-to-next instructions and side-effect-free push + `Pop`
/// pairs. The `Pop` must not be a jump target (a path landing on it would
/// lose its pop); a jump landing on the deleted push is fine, since the
/// push + pop pair it expected was a stack no-op.
fn eliminate_dead(f: &CompiledFn) -> CompiledFn {
    let is_leader = leaders(&f.code);
    let mut plan: Vec<Action> = Vec::with_capacity(f.code.len());
    let mut i = 0;
    while i < f.code.len() {
        if let Op::Jump(t) = f.code[i] {
            if t as usize == i + 1 {
                plan.push(Action::Delete);
                i += 1;
                continue;
            }
        }
        let pure_push = matches!(
            f.code[i],
            Op::Const(_) | Op::Nil | Op::True | Op::False | Op::LoadLocal(_)
        );
        if pure_push && i + 1 < f.code.len() && f.code[i + 1] == Op::Pop && !is_leader[i + 1] {
            plan.push(Action::Delete);
            plan.push(Action::Delete);
            i += 2;
            continue;
        }
        plan.push(Action::Keep);
        i += 1;
    }
    rebuild(f, plan)
}

// --- pass 3: float-array proof ------------------------------------------

/// Slots proven to always hold a `FloatArray`, per function.
///
/// A slot is proven when every `StoreLocal` targeting it (none being a
/// jump target) takes its value from a producer: a `fill`/`zeros` builtin
/// call, a load of an already-proven slot, or — when [`TypeFacts`] are
/// supplied — a call to a user function whose return the abstract
/// interpreter proved is always a `FloatArray`. Parameters are proven
/// interprocedurally: parameter `j` of `f` is proven when every
/// `CallFn(f, …)` site pushes its arguments with plain single-push
/// instructions and argument `j` loads a slot proven in the caller. The
/// whole system iterates to a (monotone, hence terminating) fixpoint.
pub(crate) fn proven_float_slots(c: &Compiled, facts: Option<&TypeFacts>) -> Vec<Vec<bool>> {
    let producer: Vec<u16> = ["fill", "zeros"]
        .iter()
        .filter_map(|want| {
            builtins::NAMES
                .iter()
                .position(|n| n == want)
                .map(|i| i as u16)
        })
        .collect();
    let fn_leaders: Vec<Vec<bool>> = c.funcs.iter().map(|f| leaders(&f.code)).collect();
    let mut proven: Vec<Vec<bool>> = c
        .funcs
        .iter()
        .map(|f| vec![false; f.n_slots as usize])
        .collect();
    loop {
        // Parameter candidacy from every call site, under current proofs.
        let mut param_ok: Vec<Vec<bool>> = c
            .funcs
            .iter()
            .map(|f| vec![true; f.arity as usize])
            .collect();
        for (ci, f) in c.funcs.iter().enumerate() {
            for (k, op) in f.code.iter().enumerate() {
                let Op::CallFn(fi, argc) = *op else { continue };
                let argc = argc as usize;
                let args_at = match k.checked_sub(argc) {
                    Some(a) => a,
                    None => {
                        param_ok[fi as usize].iter_mut().for_each(|p| *p = false);
                        continue;
                    }
                };
                // Every path must run exactly these pushes: no jump may
                // land inside the argument window or on the call itself.
                let window_clean = (args_at + 1..=k).all(|j| !fn_leaders[ci][j])
                    && f.code[args_at..k].iter().all(|a| {
                        matches!(
                            a,
                            Op::Const(_) | Op::Nil | Op::True | Op::False | Op::LoadLocal(_)
                        )
                    });
                for (j, ok) in param_ok[fi as usize].iter_mut().enumerate() {
                    let arg_proven = window_clean
                        && matches!(f.code[args_at + j],
                            Op::LoadLocal(s) if proven[ci][s as usize]);
                    if !arg_proven {
                        *ok = false;
                    }
                }
            }
        }
        // Re-derive every function's proven set.
        let mut changed = false;
        for (ci, f) in c.funcs.iter().enumerate() {
            // all_good[s]: every store into s seen so far took a producer.
            let mut all_good: HashMap<u16, bool> = HashMap::new();
            for (k, op) in f.code.iter().enumerate() {
                let Op::StoreLocal(s) = *op else { continue };
                let good = k > 0
                    && !fn_leaders[ci][k]
                    && match f.code[k - 1] {
                        Op::CallBuiltin(b, _) => producer.contains(&b),
                        Op::LoadLocal(t) => proven[ci][t as usize],
                        Op::CallFn(fi, _) => {
                            facts.is_some_and(|t| t.returns_float_array(&c.funcs[fi as usize].name))
                        }
                        _ => false,
                    };
                let e = all_good.entry(s).or_insert(true);
                *e = *e && good;
            }
            for s in 0..f.n_slots {
                let stores_good = all_good.get(&s).copied();
                let now = if (s as usize) < f.arity as usize {
                    param_ok[ci][s as usize] && stores_good.unwrap_or(true)
                } else {
                    stores_good.unwrap_or(false)
                };
                if now && !proven[ci][s as usize] {
                    proven[ci][s as usize] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return proven;
        }
    }
}

// --- pass 4: typed indexing ---------------------------------------------

/// How far the `IndexSetF` planner scans for the matching `IndexSet`.
const SET_SCAN_CAP: usize = 64;

/// Net stack effect of `op` when it is safe inside a straight-line value
/// expression, or `None` when the op ends the scan (control flow,
/// statement-level ops, anything that could touch frame slots).
fn expr_stack_effect(op: Op) -> Option<isize> {
    match op {
        Op::Const(_) | Op::Nil | Op::True | Op::False | Op::LoadLocal(_) => Some(1),
        Op::Neg | Op::Not => Some(0),
        Op::Bin(_) | Op::IndexGet => Some(-1),
        Op::IndexGetF(_, _) => Some(1),
        Op::CallFn(_, argc) | Op::CallBuiltin(_, argc) => Some(1 - argc as isize),
        Op::MakeArray(n) => Some(1 - n as isize),
        _ => None,
    }
}

/// Rewrites indexing on proven float-array slots:
/// `LoadLocal(b); LoadLocal(i); IndexGet` → `IndexGetF(b, i)` and the
/// `LoadLocal(b); LoadLocal(i); …value…; IndexSet` statement shape →
/// `…value…; IndexSetF(b, i)` (found by simulating stack depth across the
/// straight-line value expression).
fn fuse_indexing(f: &CompiledFn, proven: &[bool]) -> CompiledFn {
    let is_leader = leaders(&f.code);
    let mut plan: Vec<Action> = (0..f.code.len()).map(|_| Action::Keep).collect();
    let mut consumed = vec![false; f.code.len()];
    let mut i = 0;
    while i + 2 < f.code.len() {
        if consumed[i] {
            i += 1;
            continue;
        }
        let (Op::LoadLocal(b), Op::LoadLocal(idx)) = (f.code[i], f.code[i + 1]) else {
            i += 1;
            continue;
        };
        if !proven.get(b as usize).copied().unwrap_or(false) || is_leader[i + 1] || consumed[i + 1]
        {
            i += 1;
            continue;
        }
        // Read: the triple ends right here.
        if f.code[i + 2] == Op::IndexGet && !is_leader[i + 2] && !consumed[i + 2] {
            plan[i] = Action::Replace(vec![(Op::IndexGetF(b, idx), f.lines[i + 2])]);
            plan[i + 1] = Action::Delete;
            plan[i + 2] = Action::Delete;
            consumed[i] = true;
            consumed[i + 1] = true;
            consumed[i + 2] = true;
            i += 3;
            continue;
        }
        // Write: scan the straight-line value expression for the matching
        // IndexSet (stack depth 2 after our loads; the value nets +1).
        let mut depth: isize = 2;
        let mut j = i + 2;
        while j < f.code.len() && j - i <= SET_SCAN_CAP {
            if is_leader[j] || consumed[j] {
                break;
            }
            if f.code[j] == Op::IndexSet {
                if depth == 3 {
                    plan[i] = Action::Delete;
                    plan[i + 1] = Action::Delete;
                    plan[j] = Action::Replace(vec![(Op::IndexSetF(b, idx), f.lines[j])]);
                    consumed[i] = true;
                    consumed[i + 1] = true;
                    consumed[j] = true;
                }
                break;
            }
            let Some(effect) = expr_stack_effect(f.code[j]) else {
                break;
            };
            depth += effect;
            if depth < 3 {
                break;
            }
            j += 1;
        }
        i += 1;
    }
    rebuild(f, plan)
}

// --- pass 5: accumulator fusion -----------------------------------------

/// Rewrites the accumulator statement shape
/// `LoadLocal(s); …value…; Bin(Add); StoreLocal(s)` →
/// `…value…; AddStackToLocal(s)`, using the same straight-line stack-depth
/// scan as the `IndexSetF` planner. The value expression cannot rebind
/// locals, so reading slot `s` at the add (instead of up front) is
/// equivalent. Short values (a single push) are left for the cheaper
/// `IncLocal`/`AddConstToLocal` window fusion.
fn fuse_accumulate(f: &CompiledFn) -> CompiledFn {
    let is_leader = leaders(&f.code);
    let mut plan: Vec<Action> = (0..f.code.len()).map(|_| Action::Keep).collect();
    let mut consumed = vec![false; f.code.len()];
    let mut i = 0;
    while i + 3 < f.code.len() {
        if consumed[i] {
            i += 1;
            continue;
        }
        let Op::LoadLocal(s) = f.code[i] else {
            i += 1;
            continue;
        };
        // Stack depth relative to just before our load; the value nets +1.
        let mut depth: isize = 1;
        let mut j = i + 1;
        while j + 1 < f.code.len() && j - i <= SET_SCAN_CAP {
            if is_leader[j] || consumed[j] {
                break;
            }
            if f.code[j] == Op::Bin(BinOp::Add) && depth == 2 {
                // This add consumes our loaded value: fuse only if it
                // feeds a store straight back into the same slot.
                if f.code[j + 1] == Op::StoreLocal(s)
                    && !is_leader[j + 1]
                    && !consumed[j + 1]
                    && j - i > 2
                {
                    plan[i] = Action::Delete;
                    plan[j] = Action::Replace(vec![(Op::AddStackToLocal(s), f.lines[j])]);
                    plan[j + 1] = Action::Delete;
                    consumed[i] = true;
                    consumed[j] = true;
                    consumed[j + 1] = true;
                }
                break;
            }
            let Some(effect) = expr_stack_effect(f.code[j]) else {
                break;
            };
            depth += effect;
            if depth < 2 {
                break;
            }
            j += 1;
        }
        i += 1;
    }
    rebuild(f, plan)
}

// --- pass 6: superinstruction fusion ------------------------------------

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

/// Fuses fixed windows of plain opcodes into superinstructions, longest
/// pattern first. Interior instructions of a window must not be jump
/// targets; the head may be (the jump then lands on the fused op).
fn fuse_windows(f: &CompiledFn) -> CompiledFn {
    let is_leader = leaders(&f.code);
    let code = &f.code;
    let interior_clean =
        |i: usize, n: usize| (i + 1..i + n).all(|j| j < code.len() && !is_leader[j]);
    let mut plan: Vec<Action> = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        // 4-window: induction-variable update `a = a + <num const>`.
        if i + 3 < code.len() && interior_clean(i, 4) {
            if let (Op::LoadLocal(a), Op::Const(cidx), Op::Bin(BinOp::Add), Op::StoreLocal(a2)) =
                (code[i], code[i + 1], code[i + 2], code[i + 3])
            {
                if a == a2 {
                    if let Value::Num(n) = f.consts[cidx as usize] {
                        let fused = if n == 1.0 {
                            Op::IncLocal(a)
                        } else {
                            Op::AddConstToLocal(a, cidx)
                        };
                        plan.push(Action::Replace(vec![(fused, f.lines[i + 2])]));
                        plan.extend((0..3).map(|_| Action::Delete));
                        i += 4;
                        continue;
                    }
                }
            }
        }
        // 4-windows: loop-header compare-and-branch.
        if i + 3 < code.len() && interior_clean(i, 4) {
            if let (Op::Bin(cmp), Op::JumpIfFalse(t)) = (code[i + 2], code[i + 3]) {
                if is_cmp(cmp) {
                    let head = match (code[i], code[i + 1]) {
                        (Op::LoadLocal(a), Op::LoadLocal(b)) => Some(Op::LoadLocal2(a, b)),
                        (Op::LoadLocal(a), Op::Const(c)) => Some(Op::LoadLocalConst(a, c)),
                        _ => None,
                    };
                    if let Some(head) = head {
                        plan.push(Action::Replace(vec![
                            (head, f.lines[i]),
                            (Op::JumpIfNotCmp(cmp, t), f.lines[i + 2]),
                        ]));
                        plan.extend((0..3).map(|_| Action::Delete));
                        i += 4;
                        continue;
                    }
                }
            }
        }
        // 3-windows: binary op on two locals, or local ⊙ constant.
        if i + 2 < code.len() && interior_clean(i, 3) {
            let fused = match (code[i], code[i + 1], code[i + 2]) {
                (Op::LoadLocal(a), Op::LoadLocal(b), Op::Bin(op)) => Some(Op::BinLL(op, a, b)),
                (Op::LoadLocal(a), Op::Const(c), Op::Bin(op)) => Some(Op::BinLC(op, a, c)),
                _ => None,
            };
            if let Some(op) = fused {
                plan.push(Action::Replace(vec![(op, f.lines[i + 2])]));
                plan.extend((0..2).map(|_| Action::Delete));
                i += 3;
                continue;
            }
        }
        // 2-windows.
        if i + 1 < code.len() && interior_clean(i, 2) {
            let fused = match (code[i], code[i + 1]) {
                (Op::Bin(cmp), Op::JumpIfFalse(t)) if is_cmp(cmp) => {
                    Some((Op::JumpIfNotCmp(cmp, t), f.lines[i]))
                }
                // Leave `Const; Bin(cmp); JumpIfFalse` for the
                // compare-and-branch fusion one instruction later.
                (Op::Const(c), Op::Bin(op))
                    if !(is_cmp(op) && matches!(code.get(i + 2), Some(Op::JumpIfFalse(_)))) =>
                {
                    Some((Op::BinC(op, c), f.lines[i + 1]))
                }
                (Op::LoadLocal(a), Op::LoadLocal(b)) => Some((Op::LoadLocal2(a, b), f.lines[i])),
                (Op::LoadLocal(a), Op::Const(c)) => Some((Op::LoadLocalConst(a, c), f.lines[i])),
                _ => None,
            };
            if let Some((op, line)) = fused {
                plan.push(Action::Replace(vec![(op, line)]));
                plan.push(Action::Delete);
                i += 2;
                continue;
            }
        }
        plan.push(Action::Keep);
        i += 1;
    }
    rebuild(f, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::parser::parse;
    use crate::vm::Vm;

    fn compiled(src: &str) -> Compiled {
        compile(&parse(src).expect("parses")).expect("compiles")
    }

    fn fused(src: &str) -> Compiled {
        optimize(&compiled(src))
    }

    fn main_code(c: &Compiled) -> &[Op] {
        &c.funcs[c.main].code
    }

    fn run_both(src: &str) -> (crate::value::Value, crate::value::Value) {
        let plain = Vm::new().run(&compiled(src)).expect("plain runs");
        let fast = Vm::new().run(&fused(src)).expect("fused runs");
        (plain, fast)
    }

    #[test]
    fn for_loop_header_and_increment_fuse() {
        let c = fused("let s = 0; for i in range(0, 10) { s = s + i; } s");
        let code = main_code(&c);
        assert!(
            code.iter()
                .any(|op| matches!(op, Op::JumpIfNotCmp(BinOp::Lt, _))),
            "{code:?}"
        );
        assert!(
            code.iter().any(|op| matches!(op, Op::LoadLocal2(_, _))),
            "{code:?}"
        );
        assert!(
            code.iter().any(|op| matches!(op, Op::IncLocal(_))),
            "{code:?}"
        );
        let (a, b) = run_both("let s = 0; for i in range(0, 10) { s = s + i; } s");
        assert_eq!(a, b);
    }

    #[test]
    fn add_const_fuses_for_non_unit_steps() {
        let c = fused("let s = 0; let i = 0; while i < 10 { s = s + i; i = i + 2; } s");
        assert!(
            main_code(&c)
                .iter()
                .any(|op| matches!(op, Op::AddConstToLocal(_, _))),
            "{:?}",
            main_code(&c)
        );
    }

    #[test]
    fn accumulator_statements_fuse() {
        // `s = s + a[i] * b[i]` — the dot-product hot loop body.
        let src = "let a = fill(8, 2.0); let b = fill(8, 3.0); let s = 0; \
                   for i in range(0, 8) { s = s + a[i] * b[i]; } s";
        let c = fused(src);
        let code = main_code(&c);
        assert!(
            code.iter().any(|op| matches!(op, Op::AddStackToLocal(_))),
            "{code:?}"
        );
        let (a, b) = run_both(src);
        assert_eq!(a, b);
        // A single-push value stays with the window fusions instead.
        let c = fused("let s = 0; let i = 0; while i < 3 { s = s + i; i = i + 1; } s");
        assert!(
            !main_code(&c)
                .iter()
                .any(|op| matches!(op, Op::AddStackToLocal(_))),
            "{:?}",
            main_code(&c)
        );
    }

    #[test]
    fn accumulator_fusion_skips_cross_slot_adds() {
        // `t = s + …` must not fuse: the add stores to a different slot.
        let src = "let s = 1; let t = 0; t = s + 2 * 3; t";
        let (a, b) = run_both(src);
        assert_eq!(a, b);
        assert!(
            !main_code(&fused(src))
                .iter()
                .any(|op| matches!(op, Op::AddStackToLocal(_))),
            "{:?}",
            main_code(&fused(src))
        );
        // String accumulation goes through the canonical fallback.
        let src = "let s = \"\"; for i in range(0, 3) { s = s + (\"x\" + \"y\"); } len(s)";
        assert!(
            main_code(&fused(src))
                .iter()
                .any(|op| matches!(op, Op::AddStackToLocal(_))),
            "{:?}",
            main_code(&fused(src))
        );
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn proven_float_array_indexing_fuses() {
        let src = "let a = zeros(8); let s = 0; for i in range(0, 8) { a[i] = i; s = s + a[i]; } s";
        let c = fused(src);
        let code = main_code(&c);
        assert!(
            code.iter().any(|op| matches!(op, Op::IndexGetF(_, _))),
            "{code:?}"
        );
        assert!(
            code.iter().any(|op| matches!(op, Op::IndexSetF(_, _))),
            "{code:?}"
        );
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn unproven_bases_do_not_fuse_typed_indexing() {
        // A general array literal is not a float array.
        let c = fused("let a = [1, 2, 3]; let i = 1; a[i]");
        assert!(
            !main_code(&c)
                .iter()
                .any(|op| matches!(op, Op::IndexGetF(_, _) | Op::IndexSetF(_, _))),
            "{:?}",
            main_code(&c)
        );
        // A slot reassigned to a non-producer loses the proof.
        let c = fused("let a = zeros(2); a = [1]; let i = 0; a[i]");
        assert!(
            !main_code(&c)
                .iter()
                .any(|op| matches!(op, Op::IndexGetF(_, _))),
            "{:?}",
            main_code(&c)
        );
    }

    #[test]
    fn parameters_prove_through_clean_call_sites() {
        let src = "fn total(v, n) { let s = 0; for i in range(0, n) { s = s + v[i]; } return s; } \
                   let a = fill(4, 2.0); total(a, 4)";
        let c = fused(src);
        let f = &c.funcs[0];
        assert!(
            f.code.iter().any(|op| matches!(op, Op::IndexGetF(_, _))),
            "{:?}",
            f.code
        );
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_call_sites_block_the_parameter_proof() {
        let src = "fn first(v) { return v[0]; } \
                   let a = fill(1, 5.0); let b = [7]; first(a) + first(b)";
        let c = fused(src);
        assert!(
            !c.funcs[0]
                .code
                .iter()
                .any(|op| matches!(op, Op::IndexGetF(_, _))),
            "{:?}",
            c.funcs[0].code
        );
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn type_facts_prove_a_strict_superset_of_float_sites() {
        // `make` returns `zeros(n)` — a fact the syntactic producer scan
        // cannot see (the store reads a `CallFn` result) but the abstract
        // interpreter proves. With facts the call-result slot fuses typed
        // indexing; without, it must not.
        let src = "fn make(n) { return zeros(n); } \
                   let a = make(8); let s = 0; \
                   for i in range(0, 8) { a[i] = i; s = s + a[i]; } s";
        let program = parse(src).expect("parses");
        let facts = crate::absint::analyze(&program).facts;
        assert!(facts.returns_float_array("make"), "absint proves make");
        let c = compile(&program).expect("compiles");
        let typed = |c: &Compiled| {
            c.funcs
                .iter()
                .flat_map(|f| &f.code)
                .filter(|op| matches!(op, Op::IndexGetF(_, _) | Op::IndexSetF(_, _)))
                .count()
        };
        let without = optimize(&c);
        let with = optimize_with_facts(&c, Options::default(), Some(&facts));
        assert_eq!(typed(&without), 0, "{:?}", main_code(&without));
        assert!(typed(&with) >= 2, "{:?}", main_code(&with));
        // Strict superset on a program mixing both proof styles: every
        // syntactically-proven site stays proven, and the fact-only site is
        // new.
        let mixed = "fn make(n) { return zeros(n); } \
                     let d = fill(4, 1.0); let m = make(4); let s = 0; \
                     for i in range(0, 4) { s = s + d[i] + m[i]; } s";
        let program = parse(mixed).expect("parses");
        let facts = crate::absint::analyze(&program).facts;
        let c = compile(&program).expect("compiles");
        let without = optimize(&c);
        let with = optimize_with_facts(&c, Options::default(), Some(&facts));
        assert!(typed(&with) > typed(&without), "strict superset");
        assert!(typed(&without) >= 1, "syntactic proof still fires");
        // Both variants agree with the plain VM.
        let plain = Vm::new().run(&c).expect("plain runs");
        assert_eq!(plain, Vm::new().run(&without).expect("runs"));
        assert_eq!(plain, Vm::new().run(&with).expect("runs"));
    }

    #[test]
    fn facts_do_not_prove_mixed_return_functions() {
        // One branch returns a general array: the summary joins to
        // Arr|FArr, so `definitely(FARR)` fails and nothing fuses.
        let src = "fn make(n) { if n < 0 { return [1]; } return zeros(n); } \
                   let a = make(4); let i = 0; a[i]";
        let program = parse(src).expect("parses");
        let facts = crate::absint::analyze(&program).facts;
        assert!(!facts.returns_float_array("make"));
        let c = compile(&program).expect("compiles");
        let with = optimize_with_facts(&c, Options::default(), Some(&facts));
        assert!(
            !with
                .funcs
                .iter()
                .flat_map(|f| &f.code)
                .any(|op| matches!(op, Op::IndexGetF(_, _) | Op::IndexSetF(_, _))),
            "{:?}",
            main_code(&with)
        );
    }

    #[test]
    fn const_pool_dedup_shrinks_and_preserves_values() {
        let src = "let a = 7; let b = 7; let c = 7; a + b + c";
        let plain = compiled(src);
        let opt = optimize(&plain);
        assert!(opt.funcs[opt.main].consts.len() < plain.funcs[plain.main].consts.len());
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn dedup_keys_numbers_by_bits() {
        let mut f = CompiledFn {
            name: "t".into(),
            arity: 0,
            n_slots: 0,
            code: vec![Op::Const(0), Op::Const(1), Op::Const(2)],
            lines: vec![0, 0, 0],
            consts: vec![Value::Num(0.0), Value::Num(-0.0), Value::Num(0.0)],
        };
        dedup_consts(&mut f);
        assert_eq!(f.consts.len(), 2, "0.0 and -0.0 must stay distinct");
        assert_eq!(f.code, vec![Op::Const(0), Op::Const(1), Op::Const(0)]);
    }

    #[test]
    fn continue_jump_to_next_is_eliminated() {
        // `continue` as the last body statement jumps to the increment,
        // which is the very next instruction.
        let src = "let s = 0; for i in range(0, 4) { s = s + 1; continue; } s";
        let plain = compiled(src);
        let opt = optimize(&plain);
        assert!(main_code(&opt).len() < main_code(&plain).len());
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn pure_push_pop_pairs_are_eliminated() {
        let src = "fn f() { 1; 2; return 3; } f()";
        let plain = compiled(src);
        let opt = optimize(&plain);
        assert!(
            !opt.funcs[0].code.contains(&Op::Pop),
            "{:?}",
            opt.funcs[0].code
        );
        let (a, b) = run_both(src);
        assert_eq!(a, b);
    }

    #[test]
    fn fused_lines_stay_parallel_and_attribute_errors() {
        let src = "let a = zeros(2);\nlet i = 9;\nlet x = a[i];\nx";
        let c = fused(src);
        for f in &c.funcs {
            assert_eq!(f.code.len(), f.lines.len(), "{}: lines drifted", f.name);
        }
        let plain_err = Vm::new().run(&compiled(src)).unwrap_err().to_string();
        let fused_err = Vm::new().run(&c).unwrap_err().to_string();
        assert_eq!(plain_err, fused_err);
        assert!(fused_err.starts_with("line 3:"), "{fused_err}");
    }

    #[test]
    fn fusion_respects_block_boundaries() {
        // The `and` expression introduces jump targets mid-expression; the
        // rewritten code must still agree with the plain VM.
        for src in [
            "let a = 1; let b = 0; if a and b { 1 } else { 2 }",
            "let x = 2; let y = 3; (x < y) and (y < x)",
            "let n = 0; while n < 3 { n = n + 1; } n",
        ] {
            let (a, b) = run_both(src);
            assert_eq!(a, b, "mismatch on `{src}`");
        }
    }

    #[test]
    fn options_ablate_independently() {
        let src = "let s = 0; for i in range(0, 5) { s = s + i; } s";
        let c = compiled(src);
        let no_fuse = optimize_with(
            &c,
            Options {
                fuse: false,
                dedup_consts: true,
            },
        );
        assert!(
            !main_code(&no_fuse)
                .iter()
                .any(|op| matches!(op, Op::LoadLocal2(_, _) | Op::JumpIfNotCmp(_, _))),
            "{:?}",
            main_code(&no_fuse)
        );
        let no_dedup = optimize_with(
            &c,
            Options {
                fuse: true,
                dedup_consts: false,
            },
        );
        assert_eq!(
            no_dedup.funcs[no_dedup.main].consts.len(),
            c.funcs[c.main].consts.len()
        );
        for variant in [&no_fuse, &no_dedup] {
            assert_eq!(Vm::new().run(variant).unwrap(), Vm::new().run(&c).unwrap());
        }
    }
}
