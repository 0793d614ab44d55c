//! Fused bytecode → register IR translation.
//!
//! Three passes over one function's (peephole-fused) bytecode:
//!
//! 1. **Definite assignment** — a forward must-analysis over the basic
//!    blocks finding slots that may be read before their first store;
//!    those keep their implicit `nil` initialization in the type join.
//! 2. **Type fixpoint** — a monotone join over every slot, every operand
//!    stack position crossing a block boundary, and every instruction
//!    result. Roots: the entry-guard speculation (parameter specs), the
//!    peephole pass's FloatArray slot proofs, `absint`'s `TypeFacts`
//!    (calls to proven functions type as float arrays), and a builtin
//!    return-type table. Slots/positions proven `Num` live unboxed in the
//!    f-file, proven `FloatArray` in the a-file, everything else generic.
//! 3. **Emission** — abstract-stack translation (lazy slot/const
//!    references, so most stack traffic disappears), folding constant
//!    arithmetic on total operations, followed by dead-register
//!    elimination and redundant-guard demotion.
//!
//! Any shape the translator does not fully understand makes it return
//! `None` — the function then simply stays on the fused VM, which is
//! always semantically correct.

use std::collections::HashMap;

use crate::ast::BinOp;
use crate::builtins;
use crate::bytecode::{Compiled, Op};
use crate::value::Value;

use super::ir::{Block, Dst, GOpnd, Instr, JitFn, ParamLoc, ParamSpec, Term};

/// The small type lattice the fixpoint joins over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Bot,
    Num,
    Bool,
    Str,
    Farr,
    Arr,
    Nil,
    Any,
}

fn join(a: Ty, b: Ty) -> Ty {
    if a == b {
        a
    } else if a == Ty::Bot {
        b
    } else if b == Ty::Bot {
        a
    } else {
        Ty::Any
    }
}

/// Result type of a binary operation (errors need no type).
fn bin_ty(op: BinOp, l: Ty, r: Ty) -> Ty {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => Ty::Bool,
        Add => {
            if l == Ty::Bot || r == Ty::Bot {
                Ty::Bot
            } else if l == Ty::Num && r == Ty::Num {
                Ty::Num
            } else if l == Ty::Str && r == Ty::Str {
                Ty::Str
            } else {
                Ty::Any
            }
        }
        Sub | Mul | Div | Mod => {
            if l == Ty::Bot || r == Ty::Bot {
                Ty::Bot
            } else if l == Ty::Num && r == Ty::Num {
                Ty::Num
            } else {
                Ty::Any
            }
        }
    }
}

fn const_ty(v: &Value) -> Ty {
    match v {
        Value::Num(_) => Ty::Num,
        Value::Str(_) => Ty::Str,
        Value::Bool(_) => Ty::Bool,
        Value::Nil => Ty::Nil,
        _ => Ty::Any,
    }
}

/// Return type of each builtin on success (the table the checked unboxes
/// rely on; `builtin_table_is_sound` in `mod.rs` pins it against the real
/// implementations).
pub(crate) fn builtin_ret_ty_name(name: &str) -> &'static str {
    match name {
        "len" | "sqrt" | "abs" | "floor" | "min" | "max" | "vsum" | "vdot" => "num",
        "fill" | "zeros" => "farray",
        "print" | "push" | "vaxpy" | "vscale" => "nil",
        _ => "any",
    }
}

fn builtin_ret_ty(b: u16) -> Ty {
    match builtin_ret_ty_name(builtins::NAMES[b as usize]) {
        "num" => Ty::Num,
        "farray" => Ty::Farr,
        "nil" => Ty::Nil,
        _ => Ty::Any,
    }
}

fn is_transfer(op: &Op) -> bool {
    op.jump_target().is_some() || matches!(op, Op::CallFn(_, _) | Op::Ret | Op::RetNil)
}

/// Slots an op reads (possibly before writing).
fn slot_reads(op: &Op, out: &mut Vec<u16>) {
    out.clear();
    match op {
        Op::LoadLocal(a)
        | Op::BinLC(_, a, _)
        | Op::AddConstToLocal(a, _)
        | Op::IncLocal(a)
        | Op::AddStackToLocal(a) => out.push(*a),
        Op::LoadLocal2(a, b) | Op::BinLL(_, a, b) | Op::IndexGetF(a, b) | Op::IndexSetF(a, b) => {
            out.push(*a);
            out.push(*b);
        }
        Op::LoadLocalConst(a, _) => out.push(*a),
        _ => {}
    }
}

/// Slot an op stores into.
fn slot_write(op: &Op) -> Option<u16> {
    match op {
        Op::StoreLocal(a)
        | Op::AddConstToLocal(a, _)
        | Op::IncLocal(a)
        | Op::AddStackToLocal(a) => Some(*a),
        _ => None,
    }
}

struct Blocks {
    /// `(start, end)` op index ranges, end exclusive.
    spans: Vec<(usize, usize)>,
    /// Bytecode index of each leader → block id.
    id_at: HashMap<usize, u32>,
}

fn find_blocks(code: &[Op]) -> Option<Blocks> {
    let n = code.len();
    if n == 0 {
        return None;
    }
    let mut leader = vec![false; n];
    leader[0] = true;
    for (i, op) in code.iter().enumerate() {
        if let Some(t) = op.jump_target() {
            let t = t as usize;
            if t >= n {
                return None;
            }
            leader[t] = true;
        }
        if is_transfer(op) && i + 1 < n {
            leader[i + 1] = true;
        }
    }
    let mut spans = Vec::new();
    let mut id_at = HashMap::new();
    let mut start = 0usize;
    for (i, &lead) in leader.iter().enumerate().skip(1) {
        if lead {
            id_at.insert(start, spans.len() as u32);
            spans.push((start, i));
            start = i;
        }
    }
    id_at.insert(start, spans.len() as u32);
    spans.push((start, n));
    Some(Blocks { spans, id_at })
}

/// Successor block ids of a block (`None` entry for the fall-through of a
/// conditional is ordered last).
fn successors(blocks: &Blocks, code: &[Op], b: usize, out: &mut Vec<u32>) {
    out.clear();
    let (start, end) = blocks.spans[b];
    debug_assert!(end > start);
    let last = code[end - 1];
    if let Some(t) = last.jump_target() {
        out.push(blocks.id_at[&(t as usize)]);
    }
    // Everything but an unconditional jump or a return may fall through
    // (conditional jumps, `CallFn`, a plain op running into a leader).
    if !matches!(last, Op::Jump(_) | Op::Ret | Op::RetNil) && end < code.len() {
        out.push(blocks.id_at[&end]);
    }
}

/// Definite-assignment analysis: returns, per slot, whether some read may
/// see the implicit `nil` initialization.
fn nil_init_slots(blocks: &Blocks, code: &[Op], n_slots: usize, arity: usize) -> Vec<bool> {
    let nb = blocks.spans.len();
    let top = vec![true; n_slots];
    let mut entry_params = vec![false; n_slots];
    for e in entry_params.iter_mut().take(arity) {
        *e = true;
    }
    let mut ins: Vec<Vec<bool>> = vec![top.clone(); nb];
    ins[0] = entry_params;
    let mut outs: Vec<Vec<bool>> = vec![top.clone(); nb];
    let mut succ = Vec::new();
    let mut reads = Vec::new();
    // Fixpoint (sets only shrink).
    loop {
        let mut changed = false;
        for b in 0..nb {
            let mut cur = ins[b].clone();
            let (start, end) = blocks.spans[b];
            for op in &code[start..end] {
                // Reads do not change the set here; the marking pass below
                // uses the converged sets.
                if let Some(s) = slot_write(op) {
                    cur[s as usize] = true;
                }
            }
            if outs[b] != cur {
                outs[b] = cur;
                changed = true;
            }
            successors(blocks, code, b, &mut succ);
            for &s in &succ {
                let s = s as usize;
                let mut next = ins[s].clone();
                for (n, o) in next.iter_mut().zip(&outs[b]) {
                    *n = *n && *o;
                }
                if next != ins[s] {
                    ins[s] = next;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Marking pass with the converged in-sets.
    let mut nil_init = vec![false; n_slots];
    for (b, in_set) in ins.iter().enumerate().take(nb) {
        let mut cur = in_set.clone();
        let (start, end) = blocks.spans[b];
        for op in &code[start..end] {
            slot_reads(op, &mut reads);
            for &s in &reads {
                if !cur[s as usize] {
                    nil_init[s as usize] = true;
                }
            }
            if let Some(s) = slot_write(op) {
                cur[s as usize] = true;
            }
        }
    }
    nil_init
}

/// The converged facts emission consumes.
struct TypeInfo {
    slot_ty: Vec<Ty>,
    pos_ty: Vec<Ty>,
    entry_depth: Vec<Option<usize>>,
}

#[allow(clippy::too_many_lines)]
fn type_fixpoint(
    blocks: &Blocks,
    func: &crate::bytecode::CompiledFn,
    spec: &[ParamSpec],
    proven: &[bool],
    farr_fns: &[bool],
    nil_init: &[bool],
) -> Option<TypeInfo> {
    let code = &func.code;
    let n_slots = func.n_slots as usize;
    let arity = func.arity as usize;
    let nb = blocks.spans.len();
    let mut slot_ty = vec![Ty::Bot; n_slots];
    for (i, s) in spec.iter().enumerate() {
        slot_ty[i] = match s {
            ParamSpec::Num => Ty::Num,
            ParamSpec::FArr => Ty::Farr,
            ParamSpec::Any => Ty::Any,
        };
    }
    // Seed from the peephole FloatArray slot proofs; the join below can
    // only keep the seed when every store agrees, so a wrong seed degrades
    // to `Any` instead of mis-typing.
    for (s, ty) in slot_ty.iter_mut().enumerate().skip(arity) {
        if proven.get(s).copied().unwrap_or(false) {
            *ty = Ty::Farr;
        }
    }
    for (s, &ni) in nil_init.iter().enumerate() {
        if ni {
            slot_ty[s] = join(slot_ty[s], Ty::Nil);
        }
    }
    let mut pos_ty: Vec<Ty> = Vec::new();
    let mut entry_depth: Vec<Option<usize>> = vec![None; nb];
    entry_depth[0] = Some(0);
    let mut succ = Vec::new();
    // Round-robin until stable; lattice height bounds the rounds.
    for _round in 0..(8 + nb * 4) {
        let mut changed = false;
        for b in 0..nb {
            let Some(d) = entry_depth[b] else { continue };
            if pos_ty.len() < d {
                pos_ty.resize(d, Ty::Bot);
            }
            let mut st: Vec<Ty> = pos_ty[..d].to_vec();
            let (start, end) = blocks.spans[b];
            let store = |slot_ty: &mut Vec<Ty>, s: u16, t: Ty, changed: &mut bool| {
                let j = join(slot_ty[s as usize], t);
                if j != slot_ty[s as usize] {
                    slot_ty[s as usize] = j;
                    *changed = true;
                }
            };
            let mut ok = true;
            for op in &code[start..end] {
                macro_rules! pop {
                    () => {
                        match st.pop() {
                            Some(t) => t,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    };
                }
                match op {
                    Op::Const(i) => st.push(const_ty(&func.consts[*i as usize])),
                    Op::Nil => st.push(Ty::Nil),
                    Op::True | Op::False => st.push(Ty::Bool),
                    Op::LoadLocal(s) => st.push(slot_ty[*s as usize]),
                    Op::StoreLocal(s) => {
                        let t = pop!();
                        store(&mut slot_ty, *s, t, &mut changed);
                    }
                    Op::Bin(op) => {
                        let r = pop!();
                        let l = pop!();
                        st.push(bin_ty(*op, l, r));
                    }
                    Op::Neg => {
                        pop!();
                        st.push(Ty::Num);
                    }
                    Op::Not => {
                        pop!();
                        st.push(Ty::Bool);
                    }
                    Op::Jump(_) => {}
                    Op::JumpIfFalse(_) => {
                        pop!();
                    }
                    Op::JumpIfFalsePeek(_) | Op::JumpIfTruePeek(_) => {}
                    Op::CallFn(f, argc) => {
                        for _ in 0..*argc {
                            pop!();
                        }
                        if !ok {
                            break;
                        }
                        st.push(if farr_fns.get(*f as usize).copied().unwrap_or(false) {
                            Ty::Farr
                        } else {
                            Ty::Any
                        });
                    }
                    Op::CallBuiltin(bi, argc) => {
                        for _ in 0..*argc {
                            pop!();
                        }
                        if !ok {
                            break;
                        }
                        st.push(builtin_ret_ty(*bi));
                    }
                    Op::Ret => {
                        pop!();
                    }
                    Op::RetNil => {}
                    Op::MakeArray(n) => {
                        for _ in 0..*n {
                            pop!();
                        }
                        if !ok {
                            break;
                        }
                        st.push(Ty::Arr);
                    }
                    Op::IndexGet => {
                        let i = pop!();
                        let base = pop!();
                        st.push(if base == Ty::Farr && i == Ty::Num {
                            Ty::Num
                        } else {
                            Ty::Any
                        });
                    }
                    Op::IndexSet => {
                        pop!();
                        pop!();
                        pop!();
                    }
                    Op::Pop | Op::SetResult => {
                        pop!();
                    }
                    Op::LoadLocal2(a, b) => {
                        st.push(slot_ty[*a as usize]);
                        st.push(slot_ty[*b as usize]);
                    }
                    Op::LoadLocalConst(a, c) => {
                        st.push(slot_ty[*a as usize]);
                        st.push(const_ty(&func.consts[*c as usize]));
                    }
                    Op::BinLL(op, a, b) => {
                        st.push(bin_ty(*op, slot_ty[*a as usize], slot_ty[*b as usize]));
                    }
                    Op::BinLC(op, a, c) => st.push(bin_ty(
                        *op,
                        slot_ty[*a as usize],
                        const_ty(&func.consts[*c as usize]),
                    )),
                    Op::BinC(op, c) => {
                        let l = pop!();
                        st.push(bin_ty(*op, l, const_ty(&func.consts[*c as usize])));
                    }
                    Op::AddConstToLocal(a, c) => {
                        let t = bin_ty(
                            BinOp::Add,
                            slot_ty[*a as usize],
                            const_ty(&func.consts[*c as usize]),
                        );
                        store(&mut slot_ty, *a, t, &mut changed);
                    }
                    Op::IncLocal(a) => {
                        let t = bin_ty(BinOp::Add, slot_ty[*a as usize], Ty::Num);
                        store(&mut slot_ty, *a, t, &mut changed);
                    }
                    Op::AddStackToLocal(a) => {
                        let v = pop!();
                        let t = bin_ty(BinOp::Add, slot_ty[*a as usize], v);
                        store(&mut slot_ty, *a, t, &mut changed);
                    }
                    Op::JumpIfNotCmp(_, _) => {
                        pop!();
                        pop!();
                    }
                    Op::IndexGetF(a, b) => {
                        st.push(
                            if slot_ty[*a as usize] == Ty::Farr && slot_ty[*b as usize] == Ty::Num {
                                Ty::Num
                            } else {
                                Ty::Any
                            },
                        );
                    }
                    Op::IndexSetF(_, _) => {
                        pop!();
                    }
                }
            }
            if !ok {
                return None;
            }
            // Join the exit stack into the canonical positions and set
            // successor entry depths.
            let exit_d = st.len();
            if pos_ty.len() < exit_d {
                pos_ty.resize(exit_d, Ty::Bot);
            }
            for (p, t) in st.iter().enumerate() {
                let j = join(pos_ty[p], *t);
                if j != pos_ty[p] {
                    pos_ty[p] = j;
                    changed = true;
                }
            }
            successors(blocks, code, b, &mut succ);
            for &s in &succ {
                let s = s as usize;
                match entry_depth[s] {
                    None => {
                        entry_depth[s] = Some(exit_d);
                        changed = true;
                    }
                    Some(prev) => {
                        if prev != exit_d {
                            return None;
                        }
                    }
                }
            }
        }
        if !changed {
            return Some(TypeInfo {
                slot_ty,
                pos_ty,
                entry_depth,
            });
        }
    }
    // Did not converge in the generous bound — refuse to compile.
    None
}

/// A register in one of the three files.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reg {
    F(u16),
    A(u16),
    G(u16),
}

/// Abstract stack entry during emission.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AV {
    /// Lazy reference to a local slot.
    Slot(u16),
    /// String (or other non-numeric) constant-pool reference.
    K(u16),
    /// Folded numeric constant (bit pattern).
    NumK(u64),
    Nil,
    True,
    False,
    F(u16),
    A(u16),
    G(u16),
}

struct Emitter<'a> {
    func: &'a crate::bytecode::CompiledFn,
    slot_reg: Vec<Reg>,
    canon: Vec<Reg>,
    next_f: u16,
    next_g: u16,
    next_a: u16,
    fpool: Vec<(u16, f64)>,
    fpool_ix: HashMap<u64, u16>,
    instrs: Vec<Instr>,
}

impl<'a> Emitter<'a> {
    fn new_f(&mut self) -> Option<u16> {
        let r = self.next_f;
        self.next_f = self.next_f.checked_add(1)?;
        Some(r)
    }
    fn new_g(&mut self) -> Option<u16> {
        let r = self.next_g;
        self.next_g = self.next_g.checked_add(1)?;
        Some(r)
    }
    fn new_a(&mut self) -> Option<u16> {
        let r = self.next_a;
        self.next_a = self.next_a.checked_add(1)?;
        Some(r)
    }

    fn fconst(&mut self, v: f64) -> Option<u16> {
        if let Some(&r) = self.fpool_ix.get(&v.to_bits()) {
            return Some(r);
        }
        let r = self.new_f()?;
        self.fpool.push((r, v));
        self.fpool_ix.insert(v.to_bits(), r);
        Some(r)
    }

    /// Is this entry proven numeric (safe in the f-file)?
    fn is_num(&self, av: AV) -> bool {
        match av {
            AV::NumK(_) | AV::F(_) => true,
            AV::Slot(s) => matches!(self.slot_reg[s as usize], Reg::F(_)),
            _ => false,
        }
    }

    /// Is this entry proven a float array (safe in the a-file)?
    fn a_reg_of(&self, av: AV) -> Option<u16> {
        match av {
            AV::A(r) => Some(r),
            AV::Slot(s) => match self.slot_reg[s as usize] {
                Reg::A(r) => Some(r),
                _ => None,
            },
            _ => None,
        }
    }

    /// Numeric register holding this entry (interning constants).
    fn freg(&mut self, av: AV) -> Option<u16> {
        match av {
            AV::F(r) => Some(r),
            AV::NumK(bits) => self.fconst(f64::from_bits(bits)),
            AV::Slot(s) => match self.slot_reg[s as usize] {
                Reg::F(r) => Some(r),
                _ => None,
            },
            _ => None,
        }
    }

    /// Boxed operand view of this entry.
    fn gopnd(&mut self, av: AV) -> Option<GOpnd> {
        Some(match av {
            AV::G(r) => GOpnd::G(r),
            AV::F(r) => GOpnd::F(r),
            AV::A(r) => GOpnd::A(r),
            AV::K(i) => GOpnd::K(i),
            AV::NumK(bits) => GOpnd::F(self.fconst(f64::from_bits(bits))?),
            AV::Nil => GOpnd::Nil,
            AV::True => GOpnd::True,
            AV::False => GOpnd::False,
            AV::Slot(s) => match self.slot_reg[s as usize] {
                Reg::F(r) => GOpnd::F(r),
                Reg::A(r) => GOpnd::A(r),
                Reg::G(r) => GOpnd::G(r),
            },
        })
    }

    /// Copies `av` into a fresh register of its own file (used before a
    /// slot it references is overwritten).
    fn materialize(&mut self, av: AV) -> Option<AV> {
        Some(match av {
            AV::Slot(s) => match self.slot_reg[s as usize] {
                Reg::F(r) => {
                    let d = self.new_f()?;
                    self.instrs.push(Instr::FMov { d, s: r });
                    AV::F(d)
                }
                Reg::A(r) => {
                    let d = self.new_a()?;
                    self.instrs.push(Instr::AMov { d, s: r });
                    AV::A(d)
                }
                Reg::G(r) => {
                    let d = self.new_g()?;
                    self.instrs.push(Instr::GMov { d, s: GOpnd::G(r) });
                    AV::G(d)
                }
            },
            other => other,
        })
    }

    /// Flushes the abstract stack into the canonical cross-block
    /// registers, leaving every position holding its canonical register.
    fn flush(&mut self, st: &mut [AV]) -> Option<()> {
        for (p, slot) in st.iter_mut().enumerate() {
            let target = self.canon[p];
            let av = *slot;
            match target {
                Reg::F(r) => {
                    if av == AV::F(r) {
                        continue;
                    }
                    let s = self.freg(av)?;
                    self.instrs.push(Instr::FMov { d: r, s });
                    *slot = AV::F(r);
                }
                Reg::A(r) => {
                    if av == AV::A(r) {
                        continue;
                    }
                    let s = self.a_reg_of(av)?;
                    self.instrs.push(Instr::AMov { d: r, s });
                    *slot = AV::A(r);
                }
                Reg::G(r) => {
                    if av == AV::G(r) {
                        continue;
                    }
                    let s = self.gopnd(av)?;
                    self.instrs.push(Instr::GMov { d: r, s });
                    *slot = AV::G(r);
                }
            }
        }
        Some(())
    }

    /// Materializes every stack entry that lazily references slot `s`,
    /// because `s` is about to be overwritten.
    fn shield_slot(&mut self, st: &mut [AV], s: u16) -> Option<()> {
        for slot in st.iter_mut() {
            if *slot == AV::Slot(s) {
                *slot = self.materialize(AV::Slot(s))?;
            }
        }
        Some(())
    }
}

/// Translates one function. `spec` has one entry per parameter; `proven`
/// is the peephole FloatArray slot proof for this function; `farr_fns`
/// marks function indices `absint` proved to return float arrays.
pub(crate) fn translate(
    compiled: &Compiled,
    fidx: usize,
    spec: &[ParamSpec],
    proven: &[bool],
    farr_fns: &[bool],
) -> Option<JitFn> {
    let func = &compiled.funcs[fidx];
    let code = &func.code;
    let blocks = find_blocks(code)?;
    let arity = func.arity as usize;
    if spec.len() != arity {
        return None;
    }
    let nil_init = nil_init_slots(&blocks, code, func.n_slots as usize, arity);
    let info = type_fixpoint(&blocks, func, spec, proven, farr_fns, &nil_init)?;

    let mut em = Emitter {
        func,
        slot_reg: Vec::new(),
        canon: Vec::new(),
        next_f: 0,
        next_g: 0,
        next_a: 0,
        fpool: Vec::new(),
        fpool_ix: HashMap::new(),
        instrs: Vec::new(),
    };
    for s in 0..func.n_slots as usize {
        let r = match info.slot_ty[s] {
            Ty::Num => Reg::F(em.new_f()?),
            Ty::Farr => Reg::A(em.new_a()?),
            _ => Reg::G(em.new_g()?),
        };
        em.slot_reg.push(r);
    }
    for p in 0..info.pos_ty.len() {
        let r = match info.pos_ty[p] {
            Ty::Num => Reg::F(em.new_f()?),
            Ty::Farr => Reg::A(em.new_a()?),
            _ => Reg::G(em.new_g()?),
        };
        em.canon.push(r);
    }
    let params: Vec<ParamLoc> = (0..arity)
        .map(|i| match em.slot_reg[i] {
            Reg::F(r) => ParamLoc::F(r),
            Reg::A(r) => ParamLoc::A(r),
            Reg::G(r) => ParamLoc::G(r),
        })
        .collect();
    // Redundant-guard removal: a guard whose parameter ended up generic
    // anyway buys nothing — drop it so calls that would fail it stay
    // jitted instead of deopting.
    let spec: Vec<ParamSpec> = spec
        .iter()
        .enumerate()
        .map(|(i, s)| match (s, params[i]) {
            (ParamSpec::Num, ParamLoc::F(_)) => ParamSpec::Num,
            (ParamSpec::FArr, ParamLoc::A(_)) => ParamSpec::FArr,
            _ => ParamSpec::Any,
        })
        .collect();

    let mut out_blocks: Vec<Block> = Vec::with_capacity(blocks.spans.len());
    for b in 0..blocks.spans.len() {
        let Some(d) = info.entry_depth[b] else {
            // Unreachable block: keep the id stable with an inert body.
            out_blocks.push(Block {
                instrs: Vec::new(),
                term: Term::Ret { v: GOpnd::Nil },
                weight: 0,
            });
            continue;
        };
        let block = emit_block(&mut em, &blocks, b, d)?;
        out_blocks.push(block);
    }

    let mut jf = JitFn {
        blocks: out_blocks,
        n_f: em.next_f,
        n_g: em.next_g,
        n_a: em.next_a,
        fpool: em.fpool,
        spec,
        params,
        fidx,
    };
    eliminate_dead_regs(&mut jf);
    fuse_instrs(&mut jf);
    eliminate_dead_regs(&mut jf);
    Some(jf)
}

/// Flow-insensitive f-register read/write counts over the whole function.
/// Entry-time definitions (constant pool, numeric parameters) count as
/// writes so they can never be mistaken for a fusible temporary.
fn f_reg_counts(jf: &JitFn) -> (Vec<u32>, Vec<u32>) {
    let nf = jf.n_f as usize;
    let mut reads = vec![0u32; nf];
    let mut writes = vec![0u32; nf];
    for &(r, _) in &jf.fpool {
        writes[r as usize] += 1;
    }
    for p in &jf.params {
        if let ParamLoc::F(r) = p {
            writes[*r as usize] += 1;
        }
    }
    let mark = |o: &GOpnd, reads: &mut [u32]| {
        if let GOpnd::F(i) = o {
            reads[*i as usize] += 1;
        }
    };
    for b in &jf.blocks {
        for ins in &b.instrs {
            match ins {
                Instr::FMov { d, s } | Instr::FNeg { d, s } => {
                    reads[*s as usize] += 1;
                    writes[*d as usize] += 1;
                }
                Instr::FAdd { d, a, b }
                | Instr::FSub { d, a, b }
                | Instr::FMul { d, a, b }
                | Instr::FDiv { d, a, b, .. }
                | Instr::FMod { d, a, b, .. } => {
                    reads[*a as usize] += 1;
                    reads[*b as usize] += 1;
                    writes[*d as usize] += 1;
                }
                Instr::FFuse { d, a, b, c, .. } => {
                    reads[*a as usize] += 1;
                    reads[*b as usize] += 1;
                    reads[*c as usize] += 1;
                    writes[*d as usize] += 1;
                }
                Instr::AGet { d, idx, .. } => {
                    reads[*idx as usize] += 1;
                    writes[*d as usize] += 1;
                }
                Instr::ASet { idx, val, .. } => {
                    reads[*idx as usize] += 1;
                    reads[*val as usize] += 1;
                }
                Instr::AMov { .. } => {}
                Instr::GMov { s, .. } | Instr::GNot { s, .. } => mark(s, &mut reads),
                Instr::GBin { l, r, .. } => {
                    mark(l, &mut reads);
                    mark(r, &mut reads);
                }
                Instr::GCmpF { a, b, .. } => {
                    reads[*a as usize] += 1;
                    reads[*b as usize] += 1;
                }
                Instr::GNeg { d, s, .. } => {
                    mark(s, &mut reads);
                    writes[*d as usize] += 1;
                }
                Instr::GIdxGet { arr, idx, .. } => {
                    mark(arr, &mut reads);
                    mark(idx, &mut reads);
                }
                Instr::GIdxSet { arr, idx, val, .. } => {
                    mark(arr, &mut reads);
                    mark(idx, &mut reads);
                    mark(val, &mut reads);
                }
                Instr::GArr { items, .. } => {
                    for it in items {
                        mark(it, &mut reads);
                    }
                }
                Instr::CallB { d, args, .. } => {
                    for ar in args {
                        mark(ar, &mut reads);
                    }
                    if let Dst::F(r) = d {
                        writes[*r as usize] += 1;
                    }
                }
                Instr::SetRes { s } => mark(s, &mut reads),
            }
        }
        match &b.term {
            Term::BrFalse { c, .. } | Term::BrTrue { c, .. } => mark(c, &mut reads),
            Term::BrCmpF { a, b, .. } => {
                reads[*a as usize] += 1;
                reads[*b as usize] += 1;
            }
            Term::BrCmpG { l, r, .. } => {
                mark(l, &mut reads);
                mark(r, &mut reads);
            }
            Term::Call { args, .. } => {
                for ar in args {
                    mark(ar, &mut reads);
                }
            }
            Term::Ret { v } => mark(v, &mut reads),
            Term::Jump { .. } | Term::Fall { .. } => {}
        }
    }
    (reads, writes)
}

/// Destination of an instruction whose only effect on the f-file is one
/// write that happens after any error it can raise — safe to retarget.
fn retargetable_f_dst(ins: &Instr) -> Option<u16> {
    match ins {
        Instr::FMov { d, .. }
        | Instr::FAdd { d, .. }
        | Instr::FSub { d, .. }
        | Instr::FMul { d, .. }
        | Instr::FDiv { d, .. }
        | Instr::FMod { d, .. }
        | Instr::FNeg { d, .. }
        | Instr::FFuse { d, .. }
        | Instr::AGet { d, .. }
        | Instr::GNeg { d, .. } => Some(*d),
        Instr::CallB { d: Dst::F(r), .. } => Some(*r),
        _ => None,
    }
}

/// Rewrites the f-file destination of a retargetable instruction.
fn set_f_dst(ins: &mut Instr, nd: u16) {
    match ins {
        Instr::FMov { d, .. }
        | Instr::FAdd { d, .. }
        | Instr::FSub { d, .. }
        | Instr::FMul { d, .. }
        | Instr::FDiv { d, .. }
        | Instr::FMod { d, .. }
        | Instr::FNeg { d, .. }
        | Instr::FFuse { d, .. }
        | Instr::AGet { d, .. }
        | Instr::GNeg { d, .. } => *d = nd,
        Instr::CallB { d: Dst::F(r), .. } => *r = nd,
        _ => unreachable!("checked by retargetable_f_dst"),
    }
}

/// Views an instruction as an arithmetic f-file binop
/// (`op`, `d`, `a`, `b`, error line — 0 for the total ops).
fn as_fbin(ins: &Instr) -> Option<(BinOp, u16, u16, u16, u32)> {
    match ins {
        Instr::FAdd { d, a, b } => Some((BinOp::Add, *d, *a, *b, 0)),
        Instr::FSub { d, a, b } => Some((BinOp::Sub, *d, *a, *b, 0)),
        Instr::FMul { d, a, b } => Some((BinOp::Mul, *d, *a, *b, 0)),
        Instr::FDiv { d, a, b, line } => Some((BinOp::Div, *d, *a, *b, *line)),
        Instr::FMod { d, a, b, line } => Some((BinOp::Mod, *d, *a, *b, *line)),
        _ => None,
    }
}

/// Instruction-level peephole over the finished IR. Two rewrites, both
/// restricted to *adjacent* instructions whose intermediate f-register is
/// written and read exactly once in the whole function:
///
/// * **copy propagation** — a producer followed by `FMov` of its result
///   retargets the producer and drops the move;
/// * **pair fusion** — two arithmetic f-binops where the second consumes
///   the first's result become one [`Instr::FFuse`].
///
/// Values, evaluation order, rounding, and error behavior are unchanged
/// (the fused executor replays the exact two-step computation), and block
/// weights — the fuel schedule — are untouched; only dispatch count
/// drops. Counts are recomputed per round; within a round a merge only
/// ever removes uses, so the stale counts stay conservative.
fn fuse_instrs(jf: &mut JitFn) {
    loop {
        let (reads, writes) = f_reg_counts(jf);
        let once = |r: u16| reads[r as usize] == 1 && writes[r as usize] == 1;
        let mut changed = false;
        for b in &mut jf.blocks {
            let ins = &mut b.instrs;
            let mut i = 0;
            while i + 1 < ins.len() {
                // Copy propagation: `t = <producer>; d = t` → `d = <producer>`.
                if let Instr::FMov { d, s } = ins[i + 1] {
                    if retargetable_f_dst(&ins[i]) == Some(s) && once(s) {
                        set_f_dst(&mut ins[i], d);
                        ins.remove(i + 1);
                        changed = true;
                        continue;
                    }
                }
                // Pair fusion: `t = a op1 b; d = t op2 c` (either side).
                if let (Some((op1, t, a, bb, l1)), Some((op2, d, x, y, l2))) =
                    (as_fbin(&ins[i]), as_fbin(&ins[i + 1]))
                {
                    if once(t) && (x == t) != (y == t) {
                        let (c, rev) = if x == t { (y, false) } else { (x, true) };
                        ins[i] = Instr::FFuse {
                            op1,
                            op2,
                            d,
                            a,
                            b: bb,
                            c,
                            rev,
                            l1,
                            l2,
                        };
                        ins.remove(i + 1);
                        changed = true;
                        continue;
                    }
                }
                i += 1;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Emits one basic block; `em.instrs` is used as the scratch instruction
/// buffer.
#[allow(clippy::too_many_lines)]
fn emit_block(
    em: &mut Emitter<'_>,
    blocks: &Blocks,
    b: usize,
    entry_depth: usize,
) -> Option<Block> {
    let func = em.func;
    let code = &func.code;
    let (start, end) = blocks.spans[b];
    let weight = (end - start) as u32;
    em.instrs.clear();
    let mut st: Vec<AV> = (0..entry_depth)
        .map(|p| match em.canon[p] {
            Reg::F(r) => AV::F(r),
            Reg::A(r) => AV::A(r),
            Reg::G(r) => AV::G(r),
        })
        .collect();

    let next_block = |t: usize| -> Option<u32> { blocks.id_at.get(&t).copied() };
    let mut term: Option<Term> = None;

    for (op, &line) in code[start..end].iter().zip(&func.lines[start..end]) {
        match op {
            Op::Const(c) => match &func.consts[*c as usize] {
                Value::Num(n) => st.push(AV::NumK(n.to_bits())),
                Value::Bool(true) => st.push(AV::True),
                Value::Bool(false) => st.push(AV::False),
                Value::Nil => st.push(AV::Nil),
                _ => st.push(AV::K(*c)),
            },
            Op::Nil => st.push(AV::Nil),
            Op::True => st.push(AV::True),
            Op::False => st.push(AV::False),
            Op::LoadLocal(s) => st.push(AV::Slot(*s)),
            Op::StoreLocal(s) => {
                let v = st.pop()?;
                em.shield_slot(&mut st, *s)?;
                store_slot(em, *s, v)?;
            }
            Op::Bin(bop) => {
                let r = st.pop()?;
                let l = st.pop()?;
                st.push(emit_bin(em, *bop, l, r, line)?);
            }
            Op::Neg => {
                let v = st.pop()?;
                if let AV::NumK(bits) = v {
                    st.push(AV::NumK((-f64::from_bits(bits)).to_bits()));
                } else if em.is_num(v) {
                    let s = em.freg(v)?;
                    let d = em.new_f()?;
                    em.instrs.push(Instr::FNeg { d, s });
                    st.push(AV::F(d));
                } else {
                    let s = em.gopnd(v)?;
                    let d = em.new_f()?;
                    em.instrs.push(Instr::GNeg { d, s, line });
                    st.push(AV::F(d));
                }
            }
            Op::Not => {
                let v = st.pop()?;
                match v {
                    AV::Nil | AV::False => st.push(AV::True),
                    AV::True | AV::NumK(_) | AV::K(_) => st.push(AV::False),
                    _ => {
                        let s = em.gopnd(v)?;
                        let d = em.new_g()?;
                        em.instrs.push(Instr::GNot { d, s });
                        st.push(AV::G(d));
                    }
                }
            }
            Op::Jump(t) => {
                em.flush(&mut st)?;
                term = Some(Term::Jump {
                    to: next_block(*t as usize)?,
                });
            }
            Op::JumpIfFalse(t) => {
                let c = st.pop()?;
                em.flush(&mut st)?;
                let c = em.gopnd(c)?;
                term = Some(Term::BrFalse {
                    c,
                    on_false: next_block(*t as usize)?,
                    on_next: next_block(end)?,
                });
            }
            Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
                em.flush(&mut st)?;
                let c = em.gopnd(*st.last()?)?;
                let target = next_block(*t as usize)?;
                let on_next = next_block(end)?;
                term = Some(if matches!(op, Op::JumpIfFalsePeek(_)) {
                    Term::BrFalse {
                        c,
                        on_false: target,
                        on_next,
                    }
                } else {
                    Term::BrTrue {
                        c,
                        on_true: target,
                        on_next,
                    }
                });
            }
            Op::JumpIfNotCmp(cmp, t) => {
                let r = st.pop()?;
                let l = st.pop()?;
                em.flush(&mut st)?;
                let on_false = next_block(*t as usize)?;
                let on_next = next_block(end)?;
                term = Some(if em.is_num(l) && em.is_num(r) {
                    Term::BrCmpF {
                        op: *cmp,
                        a: em.freg(l)?,
                        b: em.freg(r)?,
                        on_false,
                        on_next,
                        line,
                    }
                } else {
                    let lo = em.gopnd(l)?;
                    let ro = em.gopnd(r)?;
                    Term::BrCmpG {
                        op: *cmp,
                        l: lo,
                        r: ro,
                        on_false,
                        on_next,
                        line,
                    }
                });
            }
            Op::CallFn(fi, argc) => {
                let argc = *argc as usize;
                if st.len() < argc {
                    return None;
                }
                let at = st.len() - argc;
                let mut args = Vec::with_capacity(argc);
                for av in st.split_off(at) {
                    args.push(em.gopnd(av)?);
                }
                em.flush(&mut st)?;
                let pos = st.len();
                // The callee's result lands in the canonical register for
                // its stack position (the successor block's entry view).
                let d = match em.canon.get(pos)? {
                    Reg::A(r) => Dst::A(*r),
                    Reg::G(r) => Dst::G(*r),
                    // The fixpoint never types a call result `Num`.
                    Reg::F(_) => return None,
                };
                term = Some(Term::Call {
                    fidx: *fi,
                    args,
                    d,
                    to: next_block(end)?,
                    line,
                });
            }
            Op::CallBuiltin(bi, argc) => {
                let argc = *argc as usize;
                if st.len() < argc {
                    return None;
                }
                let at = st.len() - argc;
                let mut args = Vec::with_capacity(argc);
                for av in st.split_off(at) {
                    args.push(em.gopnd(av)?);
                }
                let (d, push) = match builtin_ret_ty(*bi) {
                    Ty::Num => {
                        let r = em.new_f()?;
                        (Dst::F(r), AV::F(r))
                    }
                    Ty::Farr => {
                        let r = em.new_a()?;
                        (Dst::A(r), AV::A(r))
                    }
                    Ty::Nil => (Dst::None, AV::Nil),
                    _ => {
                        let r = em.new_g()?;
                        (Dst::G(r), AV::G(r))
                    }
                };
                em.instrs.push(Instr::CallB {
                    d,
                    b: *bi,
                    args,
                    line,
                });
                st.push(push);
            }
            Op::Ret => {
                let v = st.pop()?;
                let v = em.gopnd(v)?;
                term = Some(Term::Ret { v });
            }
            Op::RetNil => {
                term = Some(Term::Ret { v: GOpnd::Nil });
            }
            Op::MakeArray(n) => {
                let n = *n as usize;
                if st.len() < n {
                    return None;
                }
                let at = st.len() - n;
                let mut items = Vec::with_capacity(n);
                for av in st.split_off(at) {
                    items.push(em.gopnd(av)?);
                }
                let d = em.new_g()?;
                em.instrs.push(Instr::GArr { d, items });
                st.push(AV::G(d));
            }
            Op::IndexGet => {
                let i = st.pop()?;
                let base = st.pop()?;
                st.push(emit_index_get(em, base, i, line)?);
            }
            Op::IndexSet => {
                let v = st.pop()?;
                let i = st.pop()?;
                let base = st.pop()?;
                emit_index_set(em, base, i, v, line)?;
            }
            Op::Pop => {
                st.pop()?;
            }
            Op::SetResult => {
                let v = st.pop()?;
                let s = em.gopnd(v)?;
                em.instrs.push(Instr::SetRes { s });
            }
            Op::LoadLocal2(a, bb) => {
                st.push(AV::Slot(*a));
                st.push(AV::Slot(*bb));
            }
            Op::LoadLocalConst(a, c) => {
                st.push(AV::Slot(*a));
                st.push(const_av(func, *c));
            }
            Op::BinLL(bop, a, bb) => {
                let v = emit_bin(em, *bop, AV::Slot(*a), AV::Slot(*bb), line)?;
                st.push(v);
            }
            Op::BinLC(bop, a, c) => {
                let v = emit_bin(em, *bop, AV::Slot(*a), const_av(func, *c), line)?;
                st.push(v);
            }
            Op::BinC(bop, c) => {
                let l = st.pop()?;
                let v = emit_bin(em, *bop, l, const_av(func, *c), line)?;
                st.push(v);
            }
            Op::AddConstToLocal(a, c) => {
                em.shield_slot(&mut st, *a)?;
                let v = emit_bin(em, BinOp::Add, AV::Slot(*a), const_av(func, *c), line)?;
                store_slot(em, *a, v)?;
            }
            Op::IncLocal(a) => {
                em.shield_slot(&mut st, *a)?;
                let v = emit_bin(
                    em,
                    BinOp::Add,
                    AV::Slot(*a),
                    AV::NumK(1.0f64.to_bits()),
                    line,
                )?;
                store_slot(em, *a, v)?;
            }
            Op::AddStackToLocal(a) => {
                let v = st.pop()?;
                em.shield_slot(&mut st, *a)?;
                let nv = emit_bin(em, BinOp::Add, AV::Slot(*a), v, line)?;
                store_slot(em, *a, nv)?;
            }
            Op::IndexGetF(a, bb) => {
                st.push(emit_index_get(em, AV::Slot(*a), AV::Slot(*bb), line)?);
            }
            Op::IndexSetF(a, bb) => {
                let v = st.pop()?;
                emit_index_set(em, AV::Slot(*a), AV::Slot(*bb), v, line)?;
            }
        }
    }
    let term = match term {
        Some(t) => t,
        None => {
            // Fall-through into the next leader: weight carries forward.
            em.flush(&mut st)?;
            Term::Fall {
                to: next_block(end)?,
            }
        }
    };
    Some(Block {
        instrs: std::mem::take(&mut em.instrs),
        term,
        weight,
    })
}

fn const_av(func: &crate::bytecode::CompiledFn, c: u16) -> AV {
    match &func.consts[c as usize] {
        Value::Num(n) => AV::NumK(n.to_bits()),
        Value::Bool(true) => AV::True,
        Value::Bool(false) => AV::False,
        Value::Nil => AV::Nil,
        _ => AV::K(c),
    }
}

/// Writes `v` into slot `s`'s register.
fn store_slot(em: &mut Emitter<'_>, s: u16, v: AV) -> Option<()> {
    match em.slot_reg[s as usize] {
        Reg::F(d) => {
            let src = em.freg(v)?;
            if src != d {
                em.instrs.push(Instr::FMov { d, s: src });
            }
        }
        Reg::A(d) => {
            let src = em.a_reg_of(v)?;
            if src != d {
                em.instrs.push(Instr::AMov { d, s: src });
            }
        }
        Reg::G(d) => {
            let src = em.gopnd(v)?;
            if src != GOpnd::G(d) {
                em.instrs.push(Instr::GMov { d, s: src });
            }
        }
    }
    Some(())
}

/// Emits a binary operation, folding constants on total operations.
fn emit_bin(em: &mut Emitter<'_>, op: BinOp, l: AV, r: AV, line: u32) -> Option<AV> {
    use BinOp::*;
    if let (AV::NumK(a), AV::NumK(b)) = (l, r) {
        let (a, b) = (f64::from_bits(a), f64::from_bits(b));
        match op {
            Add => return Some(AV::NumK((a + b).to_bits())),
            Sub => return Some(AV::NumK((a - b).to_bits())),
            Mul => return Some(AV::NumK((a * b).to_bits())),
            Div if b != 0.0 => return Some(AV::NumK((a / b).to_bits())),
            Mod if b != 0.0 => return Some(AV::NumK((a % b).to_bits())),
            Eq | Ne | Lt | Le | Gt | Ge => {
                if let Some(ord) = a.partial_cmp(&b) {
                    use std::cmp::Ordering::*;
                    let t = match op {
                        Eq => ord == Equal,
                        Ne => ord != Equal,
                        Lt => ord == Less,
                        Le => ord != Greater,
                        Gt => ord == Greater,
                        Ge => ord != Less,
                        _ => unreachable!("comparison arm"),
                    };
                    return Some(if t { AV::True } else { AV::False });
                }
                // NaN comparison: a runtime error — emit the runtime op.
            }
            _ => {
                // Division/modulo by a zero constant: a runtime error.
            }
        }
    }
    if em.is_num(l) && em.is_num(r) {
        match op {
            Add | Sub | Mul => {
                let a = em.freg(l)?;
                let b = em.freg(r)?;
                let d = em.new_f()?;
                em.instrs.push(match op {
                    Add => Instr::FAdd { d, a, b },
                    Sub => Instr::FSub { d, a, b },
                    _ => Instr::FMul { d, a, b },
                });
                return Some(AV::F(d));
            }
            Div | Mod => {
                let a = em.freg(l)?;
                let b = em.freg(r)?;
                let d = em.new_f()?;
                em.instrs.push(if op == Div {
                    Instr::FDiv { d, a, b, line }
                } else {
                    Instr::FMod { d, a, b, line }
                });
                return Some(AV::F(d));
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let a = em.freg(l)?;
                let b = em.freg(r)?;
                let d = em.new_g()?;
                em.instrs.push(Instr::GCmpF { op, d, a, b, line });
                return Some(AV::G(d));
            }
        }
    }
    let lo = em.gopnd(l)?;
    let ro = em.gopnd(r)?;
    let d = em.new_g()?;
    em.instrs.push(Instr::GBin {
        op,
        d,
        l: lo,
        r: ro,
        line,
    });
    Some(AV::G(d))
}

/// Emits an indexed read, typed when the base/index are proven.
fn emit_index_get(em: &mut Emitter<'_>, base: AV, idx: AV, line: u32) -> Option<AV> {
    if let Some(arr) = em.a_reg_of(base) {
        if em.is_num(idx) {
            let i = em.freg(idx)?;
            let d = em.new_f()?;
            em.instrs.push(Instr::AGet {
                d,
                arr,
                idx: i,
                line,
            });
            return Some(AV::F(d));
        }
    }
    let arr = em.gopnd(base)?;
    let i = em.gopnd(idx)?;
    let d = em.new_g()?;
    em.instrs.push(Instr::GIdxGet {
        d,
        arr,
        idx: i,
        line,
    });
    Some(AV::G(d))
}

/// Emits an indexed write, typed when base/index/value are proven.
fn emit_index_set(em: &mut Emitter<'_>, base: AV, idx: AV, val: AV, line: u32) -> Option<()> {
    if let Some(arr) = em.a_reg_of(base) {
        if em.is_num(idx) && em.is_num(val) {
            let i = em.freg(idx)?;
            let v = em.freg(val)?;
            em.instrs.push(Instr::ASet {
                arr,
                idx: i,
                val: v,
                line,
            });
            return Some(());
        }
    }
    let arr = em.gopnd(base)?;
    let i = em.gopnd(idx)?;
    let v = em.gopnd(val)?;
    em.instrs.push(Instr::GIdxSet {
        arr,
        idx: i,
        val: v,
        line,
    });
    Some(())
}

/// SSA-lite dead-register elimination: drops pure instructions whose
/// destination register is never read anywhere (flow-insensitive read
/// counts, so values live across loop iterations are always kept).
fn eliminate_dead_regs(jf: &mut JitFn) {
    loop {
        let mut f_read = vec![false; jf.n_f as usize];
        let mut g_read = vec![false; jf.n_g as usize];
        let mut a_read = vec![false; jf.n_a as usize];
        {
            fn mark(o: &GOpnd, f_read: &mut [bool], g_read: &mut [bool], a_read: &mut [bool]) {
                match o {
                    GOpnd::G(i) => g_read[*i as usize] = true,
                    GOpnd::F(i) => f_read[*i as usize] = true,
                    GOpnd::A(i) => a_read[*i as usize] = true,
                    _ => {}
                }
            }
            macro_rules! read_g {
                ($o:expr) => {
                    mark($o, &mut f_read, &mut g_read, &mut a_read)
                };
            }
            for b in &jf.blocks {
                for ins in &b.instrs {
                    match ins {
                        Instr::FMov { s, .. } | Instr::FNeg { s, .. } => f_read[*s as usize] = true,
                        Instr::FAdd { a, b, .. }
                        | Instr::FSub { a, b, .. }
                        | Instr::FMul { a, b, .. }
                        | Instr::FDiv { a, b, .. }
                        | Instr::FMod { a, b, .. }
                        | Instr::GCmpF { a, b, .. } => {
                            f_read[*a as usize] = true;
                            f_read[*b as usize] = true;
                        }
                        Instr::FFuse { a, b, c, .. } => {
                            f_read[*a as usize] = true;
                            f_read[*b as usize] = true;
                            f_read[*c as usize] = true;
                        }
                        Instr::AGet { arr, idx, .. } => {
                            a_read[*arr as usize] = true;
                            f_read[*idx as usize] = true;
                        }
                        Instr::ASet { arr, idx, val, .. } => {
                            a_read[*arr as usize] = true;
                            f_read[*idx as usize] = true;
                            f_read[*val as usize] = true;
                        }
                        Instr::AMov { s, .. } => a_read[*s as usize] = true,
                        Instr::GMov { s, .. } | Instr::GNeg { s, .. } | Instr::GNot { s, .. } => {
                            read_g!(s);
                        }
                        Instr::GBin { l, r, .. } => {
                            read_g!(l);
                            read_g!(r);
                        }
                        Instr::GIdxGet { arr, idx, .. } => {
                            read_g!(arr);
                            read_g!(idx);
                        }
                        Instr::GIdxSet { arr, idx, val, .. } => {
                            read_g!(arr);
                            read_g!(idx);
                            read_g!(val);
                        }
                        Instr::GArr { items, .. } => {
                            for it in items {
                                read_g!(it);
                            }
                        }
                        Instr::CallB { args, .. } => {
                            for ar in args {
                                read_g!(ar);
                            }
                        }
                        Instr::SetRes { s } => read_g!(s),
                    }
                }
                match &b.term {
                    Term::BrFalse { c, .. } | Term::BrTrue { c, .. } => read_g!(c),
                    Term::BrCmpF { a, b, .. } => {
                        f_read[*a as usize] = true;
                        f_read[*b as usize] = true;
                    }
                    Term::BrCmpG { l, r, .. } => {
                        read_g!(l);
                        read_g!(r);
                    }
                    Term::Call { args, .. } => {
                        for ar in args {
                            read_g!(ar);
                        }
                    }
                    Term::Ret { v } => read_g!(v),
                    Term::Jump { .. } | Term::Fall { .. } => {}
                }
            }
        }
        let mut removed = false;
        for b in &mut jf.blocks {
            b.instrs.retain(|ins| {
                let dead = match ins {
                    Instr::FMov { d, .. }
                    | Instr::FAdd { d, .. }
                    | Instr::FSub { d, .. }
                    | Instr::FMul { d, .. }
                    | Instr::FNeg { d, .. } => !f_read[*d as usize],
                    // A fused pair is pure only when neither half can
                    // raise a zero-divisor error.
                    Instr::FFuse { op1, op2, d, .. } => {
                        !matches!(op1, BinOp::Div | BinOp::Mod)
                            && !matches!(op2, BinOp::Div | BinOp::Mod)
                            && !f_read[*d as usize]
                    }
                    Instr::AMov { d, .. } => !a_read[*d as usize],
                    Instr::GMov { d, .. } | Instr::GNot { d, .. } => !g_read[*d as usize],
                    // Everything else can error, allocate, or charge — keep.
                    _ => false,
                };
                if dead {
                    removed = true;
                }
                !dead
            });
        }
        // Constants feeding only dead code are unreferenced now too.
        jf.fpool.retain(|(r, _)| f_read[*r as usize]);
        if !removed {
            break;
        }
    }
}
