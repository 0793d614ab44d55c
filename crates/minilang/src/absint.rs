//! Abstract interpretation of ResearchScript: flow-sensitive, interprocedural
//! type, interval, and array-shape inference with a static fuel-cost model.
//!
//! The analysis runs a product lattice per variable:
//!
//! * **types** — a bitset over `{nil, bool, num, str, array, farray}`
//!   (empty = unreachable/bottom, full = `any`);
//! * **numeric interval** — `[lo, hi]` over the extended reals, widened at
//!   loop heads with a `{0, ±∞}` threshold set so every loop stabilizes;
//! * **length interval** — for array-typed values, bounds on `len(v)` seeded
//!   at the allocation site (`fill`/`zeros`/array literals) and widened to
//!   `+∞` whenever a `push` or an escaping call could alias the value.
//!
//! Function bodies are analyzed with parameters at ⊤, and summaries (return
//! abstract value + fuel-cost interval) iterate to a global fixpoint, so the
//! pass is sound for any call site. From the fixpoint three consumers are
//! derived:
//!
//! 1. **Lints W008–W012** (see [`crate::diagnostics::Code`]) — provable
//!    division by zero, out-of-bounds indexing, type confusion, numeric
//!    domain errors, and non-terminating loops — merged into
//!    [`crate::lint::lint`]'s output.
//! 2. **[`CostReport`]** — a per-function and whole-program fuel interval.
//!    The lower bound is *cross-engine sound*: every run that completes
//!    normally consumes at least `lo` fuel on the tree-walking interpreter
//!    **and** on the (fused) bytecode VM, so a scheduler may shed any job
//!    whose `lo` exceeds its fuel quota without executing it. The upper
//!    bound, when finite, bounds the tree-walking interpreter exactly.
//! 3. **[`TypeFacts`]** — functions proven to always return a `FloatArray`,
//!    consumed by [`crate::peephole`] to fuse typed indexing through calls.
//!
//! Interval bounds constrain a value only when it is not NaN; any transfer
//! function whose candidate bounds degenerate to NaN returns the full
//! interval, which keeps the containment claim sound in the presence of
//! overflow arithmetic.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

use crate::ast::{BinOp, Block, Expr, ExprKind, Program, Stmt, StmtKind, UnOp};
use crate::diagnostics::{Code, Diagnostic};
use crate::optimize;

/// Maximum global summary-fixpoint rounds (recursion makes cost lower
/// bounds climb; every intermediate iterate is sound, so capping is safe).
const MAX_SUMMARY_ROUNDS: usize = 20;
/// Loop-head iterations before widening kicks in unconditionally.
const MAX_LOOP_ROUNDS: usize = 40;

// ---------------------------------------------------------------------------
// Type lattice
// ---------------------------------------------------------------------------

/// A set of runtime value types, as a bitmask. Empty = bottom (no value can
/// occur — unreachable), full = `any`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeSet(u8);

impl TypeSet {
    /// `nil`.
    pub const NIL: TypeSet = TypeSet(1);
    /// Booleans.
    pub const BOOL: TypeSet = TypeSet(2);
    /// Numbers.
    pub const NUM: TypeSet = TypeSet(4);
    /// Strings.
    pub const STR: TypeSet = TypeSet(8);
    /// Generic (boxed) arrays.
    pub const ARR: TypeSet = TypeSet(16);
    /// Contiguous float arrays.
    pub const FARR: TypeSet = TypeSet(32);
    /// Every type (⊤).
    pub const ANY: TypeSet = TypeSet(63);
    /// No type (⊥).
    pub const EMPTY: TypeSet = TypeSet(0);

    /// Set union (lattice join).
    #[must_use]
    pub fn union(self, o: TypeSet) -> TypeSet {
        TypeSet(self.0 | o.0)
    }

    /// Set intersection (lattice meet).
    #[must_use]
    pub fn inter(self, o: TypeSet) -> TypeSet {
        TypeSet(self.0 & o.0)
    }

    /// True when no type is possible (bottom).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when the value *may* have a type in `o`.
    pub fn may(self, o: TypeSet) -> bool {
        self.0 & o.0 != 0
    }

    /// True when the value *definitely* has a type in `o` (non-empty and a
    /// subset of `o`).
    pub fn definitely(self, o: TypeSet) -> bool {
        self.0 != 0 && self.0 & !o.0 == 0
    }

    /// True when the value may be an array of either representation.
    pub fn may_array(self) -> bool {
        self.may(TypeSet::ARR.union(TypeSet::FARR))
    }
}

impl fmt::Display for TypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        if *self == TypeSet::ANY {
            return write!(f, "any");
        }
        let parts: [(TypeSet, &str); 6] = [
            (TypeSet::NIL, "nil"),
            (TypeSet::BOOL, "bool"),
            (TypeSet::NUM, "num"),
            (TypeSet::STR, "str"),
            (TypeSet::ARR, "array"),
            (TypeSet::FARR, "farray"),
        ];
        let mut first = true;
        for (t, name) in parts {
            if self.may(t) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Interval lattice
// ---------------------------------------------------------------------------

/// A closed interval over the extended reals. Bounds are never NaN; the
/// interval constrains a value only when the value itself is not NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

impl Interval {
    /// The full interval `(-inf, +inf)` (⊤).
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Builds an interval, sanitizing NaN bounds to the full interval.
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Interval::TOP
        } else {
            Interval { lo, hi }
        }
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// Lattice join (interval hull).
    #[must_use]
    pub fn join(self, o: Interval) -> Interval {
        Interval::new(self.lo.min(o.lo), self.hi.max(o.hi))
    }

    /// Meet; an empty intersection collapses to the tightest void proxy
    /// `[lo, hi]` with `lo > hi` signalled by returning `None`.
    #[must_use]
    pub fn meet(self, o: Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        if lo > hi {
            None
        } else {
            Some(Interval { lo, hi })
        }
    }

    /// Widening with the threshold set `{0, ±∞}`: a dropping lower bound
    /// lands on `0` if still non-negative, else `-inf`; a rising upper
    /// bound lands on `0` if still non-positive, else `+inf`.
    #[must_use]
    pub fn widen(self, new: Interval) -> Interval {
        let lo = if new.lo >= self.lo {
            self.lo
        } else if new.lo >= 0.0 {
            0.0
        } else {
            f64::NEG_INFINITY
        };
        let hi = if new.hi <= self.hi {
            self.hi
        } else if new.hi <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        Interval::new(lo, hi)
    }

    /// True when every value in the interval is a single known point.
    pub fn is_point(self) -> bool {
        self.lo == self.hi && self.lo.is_finite()
    }

    fn add(self, o: Interval) -> Interval {
        Interval::new(self.lo + o.lo, self.hi + o.hi)
    }

    fn sub(self, o: Interval) -> Interval {
        Interval::new(self.lo - o.hi, self.hi - o.lo)
    }

    fn neg(self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        if c.iter().any(|v| v.is_nan()) {
            return Interval::TOP;
        }
        Interval::new(
            c.iter().copied().fold(f64::INFINITY, f64::min),
            c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }

    fn div(self, o: Interval) -> Interval {
        // Division by an interval containing zero errors at runtime for the
        // zero itself; for the analysis the result is unconstrained.
        if o.lo <= 0.0 && o.hi >= 0.0 {
            return Interval::TOP;
        }
        let c = [
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        ];
        if c.iter().any(|v| v.is_nan()) {
            return Interval::TOP;
        }
        Interval::new(
            c.iter().copied().fold(f64::INFINITY, f64::min),
            c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }

    fn rem(self, o: Interval) -> Interval {
        // `x % y` keeps the sign of `x` with `|r| < |y|` and `|r| <= |x|`.
        let m = o.lo.abs().max(o.hi.abs());
        if !m.is_finite() {
            return if self.lo >= 0.0 {
                Interval::new(0.0, self.hi)
            } else {
                Interval::TOP
            };
        }
        if self.lo >= 0.0 {
            Interval::new(0.0, self.hi.min(m))
        } else {
            Interval::new(-m, m)
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = |v: f64| -> String {
            if v == f64::NEG_INFINITY {
                "-inf".into()
            } else if v == f64::INFINITY {
                "+inf".into()
            } else if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v}")
            }
        };
        write!(f, "[{}, {}]", b(self.lo), b(self.hi))
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// The product-lattice abstraction of one runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsVal {
    /// Possible runtime types.
    pub types: TypeSet,
    /// Bounds on the value when it is a (non-NaN) number.
    pub num: Interval,
    /// Bounds on `len(v)` when the value is an array.
    pub len: Interval,
}

/// The non-negative length interval every array starts from.
const LEN_TOP: Interval = Interval {
    lo: 0.0,
    hi: f64::INFINITY,
};

impl AbsVal {
    /// ⊤: any value at all.
    pub fn top() -> AbsVal {
        AbsVal {
            types: TypeSet::ANY,
            num: Interval::TOP,
            len: LEN_TOP,
        }
    }

    /// ⊥: no value can occur here.
    pub fn bottom() -> AbsVal {
        AbsVal {
            types: TypeSet::EMPTY,
            num: Interval::TOP,
            len: LEN_TOP,
        }
    }

    /// An exactly-known number.
    pub fn num(v: f64) -> AbsVal {
        AbsVal {
            types: TypeSet::NUM,
            num: Interval::point(v),
            len: LEN_TOP,
        }
    }

    /// A number within `iv`.
    pub fn num_in(iv: Interval) -> AbsVal {
        AbsVal {
            types: TypeSet::NUM,
            num: iv,
            len: LEN_TOP,
        }
    }

    /// A value of type set `t` with unconstrained payload.
    pub fn of(t: TypeSet) -> AbsVal {
        AbsVal {
            types: t,
            num: Interval::TOP,
            len: LEN_TOP,
        }
    }

    /// An array value (`t` must be `ARR`/`FARR`) with length in `len`.
    pub fn array(t: TypeSet, len: Interval) -> AbsVal {
        AbsVal {
            types: t,
            num: Interval::TOP,
            len,
        }
    }

    /// True when this is ⊥.
    pub fn is_bottom(&self) -> bool {
        self.types.is_empty()
    }

    /// Lattice join.
    #[must_use]
    pub fn join(&self, o: &AbsVal) -> AbsVal {
        if self.is_bottom() {
            return *o;
        }
        if o.is_bottom() {
            return *self;
        }
        AbsVal {
            types: self.types.union(o.types),
            num: self.num.join(o.num),
            len: self.len.join(o.len),
        }
    }

    /// Widening (types join — the set lattice is finite — intervals widen).
    #[must_use]
    pub fn widen(&self, new: &AbsVal) -> AbsVal {
        if self.is_bottom() {
            return *new;
        }
        if new.is_bottom() {
            return *self;
        }
        AbsVal {
            types: self.types.union(new.types),
            num: self.num.widen(new.num),
            len: self.len.widen(new.len),
        }
    }

    /// Definite truthiness, when provable. `nil` and `false` are the only
    /// falsy values; numbers (including 0), strings, and arrays are truthy.
    pub fn truthiness(&self) -> Option<bool> {
        if self.is_bottom() {
            return None;
        }
        if self.types.definitely(TypeSet::NIL) {
            return Some(false);
        }
        if !self.types.may(TypeSet::NIL.union(TypeSet::BOOL)) {
            return Some(true);
        }
        None
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            return write!(f, "none");
        }
        write!(f, "{}", self.types)?;
        if self.types.may(TypeSet::NUM) && self.num != Interval::TOP {
            write!(f, " {}", self.num)?;
        }
        if self.types.may_array() && self.len != LEN_TOP {
            write!(f, " len{}", self.len)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cost lattice
// ---------------------------------------------------------------------------

/// A fuel-cost interval: `lo` is a cross-engine lower bound on the fuel any
/// normally-completing run consumes (interpreter statements *and* VM
/// instructions); `hi`, when `Some`, upper-bounds the tree-walking
/// interpreter's fuel. `lo == u64::MAX` marks a path proven to never
/// complete under the fuel model (a reachable infinite loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostInterval {
    /// Fuel lower bound (all engines).
    pub lo: u64,
    /// Interpreter fuel upper bound; `None` = unbounded.
    pub hi: Option<u64>,
}

impl CostInterval {
    /// The zero cost.
    pub const ZERO: CostInterval = CostInterval { lo: 0, hi: Some(0) };
    /// Unknown cost `[0, ∞)`.
    pub const UNKNOWN: CostInterval = CostInterval { lo: 0, hi: None };

    /// Sequential composition.
    #[must_use]
    pub fn seq(self, o: CostInterval) -> CostInterval {
        CostInterval {
            lo: self.lo.saturating_add(o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }

    /// Adds a constant to both bounds.
    #[must_use]
    pub fn add_const(self, c: u64) -> CostInterval {
        self.seq(CostInterval { lo: c, hi: Some(c) })
    }

    /// Alternative composition (branch join).
    #[must_use]
    pub fn join(self, o: CostInterval) -> CostInterval {
        CostInterval {
            lo: self.lo.min(o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Repeats this cost between `times_lo` and `times_hi` times.
    #[must_use]
    pub fn repeat(self, times_lo: u64, times_hi: Option<u64>) -> CostInterval {
        CostInterval {
            lo: self.lo.saturating_mul(times_lo),
            hi: match (self.hi, times_hi) {
                (Some(h), Some(t)) => Some(h.saturating_mul(t)),
                _ => None,
            },
        }
    }
}

impl fmt::Display for CostInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == u64::MAX {
            return write!(f, "[inf, inf)");
        }
        match self.hi {
            Some(h) => write!(f, "[{}, {}]", self.lo, h),
            None => write!(f, "[{}, +inf)", self.lo),
        }
    }
}

/// Static fuel costs for every function and for the whole program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// `(function name, cost interval)` in definition order.
    pub functions: Vec<(String, CostInterval)>,
    /// Whole-program cost (main statements plus callee summaries).
    pub program: CostInterval,
}

// ---------------------------------------------------------------------------
// Type facts for the peephole pass
// ---------------------------------------------------------------------------

/// Interprocedural type facts proven by the fixpoint, consumed by
/// [`crate::peephole::optimize_with_facts`]: the set of functions whose
/// every return is provably a `FloatArray` (such calls can seed typed
/// `IndexGetF`/`IndexSetF` fusion at the call site).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypeFacts {
    farray_fns: std::collections::BTreeSet<String>,
}

impl TypeFacts {
    /// True when `name` is proven to always return a `FloatArray`.
    pub fn returns_float_array(&self, name: &str) -> bool {
        self.farray_fns.contains(name)
    }

    /// Number of proven functions (for reporting).
    pub fn n_proven(&self) -> usize {
        self.farray_fns.len()
    }
}

// ---------------------------------------------------------------------------
// Analysis result
// ---------------------------------------------------------------------------

/// Per-function facts at the fixpoint, for reporting (`rsc --facts`).
#[derive(Debug, Clone, PartialEq)]
pub struct FnFacts {
    /// Function name.
    pub name: String,
    /// Parameter names (analyzed at ⊤).
    pub params: Vec<String>,
    /// Abstract return value.
    pub ret: AbsVal,
    /// Fuel-cost interval of one call.
    pub cost: CostInterval,
}

/// Everything the abstract interpreter proves about one program.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Lint findings (W008–W012), unsorted; `lint` merges and sorts them.
    pub diagnostics: Vec<Diagnostic>,
    /// Static fuel costs.
    pub cost: CostReport,
    /// Functions proven to return `FloatArray`.
    pub facts: TypeFacts,
    /// Per-function fixpoint facts, in definition order.
    pub functions: Vec<FnFacts>,
    /// Abstraction of the program result (the last top-level expression
    /// statement executed).
    pub main_result: AbsVal,
    /// Top-level variables at the end of main, sorted by name.
    pub main_vars: Vec<(String, AbsVal)>,
}

impl Analysis {
    /// Renders the fixpoint deterministically for `rsc --facts` and the
    /// golden-file test.
    pub fn render_facts(&self) -> String {
        let mut out = String::new();
        for f in &self.functions {
            let _ = writeln!(
                out,
                "fn {}({}) -> {} cost {}",
                f.name,
                f.params.join(", "),
                f.ret,
                f.cost
            );
        }
        let _ = writeln!(out, "main cost {}", self.cost.program);
        let _ = writeln!(out, "main result {}", self.main_result);
        for (name, v) in &self.main_vars {
            let _ = writeln!(out, "  {name}: {v}");
        }
        out
    }
}

/// Runs the abstract interpreter on a parsed program.
pub fn analyze(program: &Program) -> Analysis {
    let mut a = Analyzer::new(program);
    a.fixpoint();
    a.finish()
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

/// Pseudo-variable holding the abstraction of the program result. The name
/// contains `<`, so it can never collide with a source identifier.
const RESULT_VAR: &str = "<result>";

/// Scopes are keyed by names borrowed from the AST, so cloning an env
/// (at every branch, loop pass and pure evaluation) copies no strings.
#[derive(Debug, Clone, PartialEq)]
struct Env<'a> {
    scopes: Vec<HashMap<&'a str, AbsVal>>,
    reachable: bool,
}

impl<'a> Env<'a> {
    fn new() -> Env<'a> {
        Env {
            scopes: vec![HashMap::new()],
            reachable: true,
        }
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn define(&mut self, name: &'a str, v: AbsVal) {
        if let Some(s) = self.scopes.last_mut() {
            s.insert(name, v);
        }
    }

    fn assign(&mut self, name: &'a str, v: AbsVal) {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                *slot = v;
                return;
            }
        }
        // Assigning an unbound name is a runtime error (W001's domain);
        // define it at top so later reads stay sound.
        if let Some(s) = self.scopes.first_mut() {
            s.insert(name, v);
        }
    }

    fn get(&self, name: &str) -> AbsVal {
        for s in self.scopes.iter().rev() {
            if let Some(v) = s.get(name) {
                return *v;
            }
        }
        AbsVal::top()
    }

    fn update(&mut self, name: &str, f: impl FnOnce(&mut AbsVal)) {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                f(slot);
                return;
            }
        }
    }

    /// Drops scopes deeper than `depth` (used when joining `break`/
    /// `continue` environments captured inside nested scopes).
    fn truncate(&mut self, depth: usize) {
        self.scopes.truncate(depth);
    }

    /// Widens any possibly-array binding's length upper bound to `+∞` —
    /// the sound response to a mutation that may alias it (`push`, or a
    /// call that receives any array).
    fn widen_array_lengths(&mut self) {
        for s in &mut self.scopes {
            for v in s.values_mut() {
                if v.types.may_array() {
                    v.len = Interval::new(v.len.lo, f64::INFINITY);
                }
            }
        }
    }

    /// Pointwise join with another env of the same scope structure.
    fn join_from(&mut self, other: &Env<'a>) {
        if !other.reachable {
            return;
        }
        if !self.reachable {
            *self = other.clone();
            return;
        }
        for (i, s) in self.scopes.iter_mut().enumerate() {
            let os = other.scopes.get(i);
            for (k, v) in s.iter_mut() {
                let ov = os
                    .and_then(|m| m.get(k))
                    .copied()
                    .unwrap_or_else(AbsVal::top);
                *v = v.join(&ov);
            }
        }
    }

    /// Pointwise widening against a previous loop-head env.
    fn widened_from(&self, new: &Env<'a>) -> Env<'a> {
        let mut out = self.clone();
        out.reachable = self.reachable || new.reachable;
        for (i, s) in out.scopes.iter_mut().enumerate() {
            let ns = new.scopes.get(i);
            for (k, v) in s.iter_mut() {
                let nv = ns
                    .and_then(|m| m.get(k))
                    .copied()
                    .unwrap_or_else(AbsVal::top);
                *v = v.widen(&nv);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct FnSummary {
    ret: AbsVal,
    cost: CostInterval,
}

struct Analyzer<'a> {
    program: &'a Program,
    fn_index: HashMap<&'a str, usize>,
    summaries: Vec<FnSummary>,
    diags: Vec<Diagnostic>,
    emit: bool,
    /// `(scope depth at loop entry, collected (env, path-lo))` per
    /// enclosing loop; the path-lo is function-entry-relative.
    break_envs: Vec<(usize, ExitPaths<'a>)>,
    continue_envs: Vec<(usize, ExitPaths<'a>)>,
    ret_vals: Vec<AbsVal>,
    /// Fuel lower bound from function entry to each `return` statement —
    /// early-return paths must not be charged for the code they skip.
    ret_los: Vec<u64>,
    in_main: bool,
}

/// Escaping loop paths: each `break`/`continue` env paired with its
/// function-entry-relative fuel-path lower bound.
type ExitPaths<'a> = Vec<(Env<'a>, u64)>;

impl<'a> Analyzer<'a> {
    fn new(program: &'a Program) -> Analyzer<'a> {
        let fn_index = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        Analyzer {
            program,
            fn_index,
            summaries: vec![
                FnSummary {
                    ret: AbsVal::bottom(),
                    cost: CostInterval::UNKNOWN,
                };
                program.functions.len()
            ],
            diags: Vec::new(),
            emit: false,
            break_envs: Vec::new(),
            continue_envs: Vec::new(),
            ret_vals: Vec::new(),
            ret_los: Vec::new(),
            in_main: false,
        }
    }

    fn warn(&mut self, code: Code, line: u32, msg: impl Into<String>) {
        if self.emit {
            self.diags.push(Diagnostic::new(code, line, msg));
        }
    }

    // -- driver ------------------------------------------------------------

    fn analyze_function(&mut self, idx: usize) -> FnSummary {
        let program = self.program;
        let f = &program.functions[idx];
        let mut env = Env::new();
        for p in &f.params {
            env.define(p, AbsVal::top());
        }
        let saved_rets = std::mem::take(&mut self.ret_vals);
        let saved_los = std::mem::take(&mut self.ret_los);
        let saved_main = std::mem::replace(&mut self.in_main, false);
        let mut cost = CostInterval::ZERO;
        self.block(&f.body, &mut env, &mut cost, 0);
        let mut ret = AbsVal::bottom();
        for v in std::mem::replace(&mut self.ret_vals, saved_rets) {
            ret = ret.join(&v);
        }
        if env.reachable {
            // Normal completion returns nil.
            ret = ret.join(&AbsVal::of(TypeSet::NIL));
        }
        // The cheapest completing path is either the normal fallthrough or
        // an early return; a function with neither never completes.
        let mut lo = if env.reachable { cost.lo } else { u64::MAX };
        for r in std::mem::replace(&mut self.ret_los, saved_los) {
            lo = lo.min(r);
        }
        self.in_main = saved_main;
        FnSummary {
            ret,
            cost: CostInterval { lo, hi: cost.hi },
        }
    }

    fn fixpoint(&mut self) {
        for round in 0..MAX_SUMMARY_ROUNDS {
            let mut changed = false;
            for idx in 0..self.program.functions.len() {
                let mut s = self.analyze_function(idx);
                let prev = self.summaries[idx].clone();
                // Return values grow monotonically (widen late rounds so
                // recursive interval chains converge); cost bounds are
                // sound at every iterate, so the freshest is kept.
                s.ret = if round >= 6 {
                    prev.ret.widen(&s.ret)
                } else {
                    prev.ret.join(&s.ret)
                };
                if s != prev {
                    changed = true;
                    self.summaries[idx] = s;
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn finish(mut self) -> Analysis {
        // One more sweep with diagnostics on, over functions then main.
        self.emit = true;
        for idx in 0..self.program.functions.len() {
            self.analyze_function(idx);
        }
        let mut env = Env::new();
        env.define(RESULT_VAR, AbsVal::of(TypeSet::NIL));
        self.in_main = true;
        let mut program_cost = CostInterval::ZERO;
        let program = self.program;
        self.block_flat(&program.main, &mut env, &mut program_cost, 0);
        self.in_main = false;
        if !env.reachable {
            // Main cannot complete normally (it ends in a proven-infinite
            // loop, or every path `return`s/`break`s out of main, which is
            // a runtime error): no run finishes within any budget.
            program_cost.lo = u64::MAX;
        }

        let functions: Vec<FnFacts> = self
            .program
            .functions
            .iter()
            .zip(&self.summaries)
            .map(|(f, s)| FnFacts {
                name: f.name.clone(),
                params: f.params.clone(),
                ret: s.ret,
                cost: s.cost,
            })
            .collect();
        let mut facts = TypeFacts::default();
        for f in &functions {
            if f.ret.types.definitely(TypeSet::FARR) {
                facts.farray_fns.insert(f.name.clone());
            }
        }
        let cost = CostReport {
            functions: functions.iter().map(|f| (f.name.clone(), f.cost)).collect(),
            program: program_cost,
        };
        let main_result = env.get(RESULT_VAR);
        let mut main_vars: Vec<(String, AbsVal)> = env
            .scopes
            .first()
            .map(|s| {
                s.iter()
                    .filter(|(k, _)| **k != RESULT_VAR)
                    .map(|(k, v)| ((*k).to_owned(), *v))
                    .collect()
            })
            .unwrap_or_default();
        main_vars.sort_by(|a, b| a.0.cmp(&b.0));
        Analysis {
            diagnostics: self.diags,
            cost,
            facts,
            functions,
            main_result,
            main_vars,
        }
    }

    // -- statements --------------------------------------------------------
    //
    // `base` is a sound fuel lower bound on reaching the start of the
    // current block from the function entry; `base + cost.lo` is therefore
    // a path lower bound at the current statement, which is what a
    // `return` statement records.

    /// Analyzes a block inside its own scope.
    fn block(&mut self, b: &'a Block, env: &mut Env<'a>, cost: &mut CostInterval, base: u64) {
        env.push();
        self.block_flat(b, env, cost, base);
        env.pop();
    }

    /// Analyzes statements in the current scope (main runs "flat", like the
    /// interpreter's `exec_block_flat`).
    fn block_flat(&mut self, b: &'a Block, env: &mut Env<'a>, cost: &mut CostInterval, base: u64) {
        for s in b {
            if !env.reachable {
                return;
            }
            self.stmt(s, env, cost, base);
        }
    }

    fn stmt(&mut self, s: &'a Stmt, env: &mut Env<'a>, cost: &mut CostInterval, base: u64) {
        match &s.kind {
            StmtKind::Let { name, init } => {
                *cost = cost.add_const(1);
                let v = self.eval(init, env, cost);
                env.define(name, v);
            }
            StmtKind::Assign { name, value } => {
                *cost = cost.add_const(1);
                let v = self.eval(value, env, cost);
                env.assign(name, v);
            }
            StmtKind::IndexAssign { base, index, value } => {
                *cost = cost.add_const(1);
                let b = self.eval(base, env, cost);
                let i = self.eval(index, env, cost);
                let v = self.eval(value, env, cost);
                self.check_index(&b, &i, index.line);
                if b.types.definitely(TypeSet::FARR) && !v.is_bottom() && !v.types.may(TypeSet::NUM)
                {
                    self.warn(
                        Code::TypeConfusion,
                        value.line,
                        format!("float array element assigned a {} value", v.types),
                    );
                }
            }
            StmtKind::Expr(e) => {
                // Cross-engine lower bound 0: the VM may eliminate a pure
                // push+pop pair entirely.
                *cost = cost.seq(CostInterval { lo: 0, hi: Some(1) });
                let v = self.eval(e, env, cost);
                if self.in_main {
                    env.assign(RESULT_VAR, v);
                }
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let entry_lo = base.saturating_add(cost.lo);
                let mut cond_cost = CostInterval::ZERO;
                let cv = self.eval(cond, env, &mut cond_cost);
                let syntactic = matches!(
                    optimize::fold(cond).kind,
                    ExprKind::Bool(_) | ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Nil
                );
                let truth = self.truthiness(cond, &cv, env);
                match truth {
                    Some(t) => {
                        let branch = if t { then_block } else { else_block };
                        // A syntactically-constant condition is folded away
                        // before the VM ever sees it; only then is the
                        // statement itself free.
                        let stmt = u64::from(!syntactic);
                        let bb = entry_lo.saturating_add(cond_cost.lo).saturating_add(stmt);
                        let mut bc = CostInterval::ZERO;
                        self.refine(cond, t, env);
                        self.block(branch, env, &mut bc, bb);
                        *cost = cost.seq(cond_cost).seq(bc).seq(CostInterval {
                            lo: stmt,
                            hi: Some(1),
                        });
                    }
                    None => {
                        let bb = entry_lo.saturating_add(cond_cost.lo).saturating_add(1);
                        let mut then_env = env.clone();
                        self.refine(cond, true, &mut then_env);
                        let mut tc = CostInterval::ZERO;
                        self.block(then_block, &mut then_env, &mut tc, bb);
                        let then_reach = then_env.reachable;
                        let mut else_env = env.clone();
                        self.refine(cond, false, &mut else_env);
                        let mut ec = CostInterval::ZERO;
                        self.block(else_block, &mut else_env, &mut ec, bb);
                        then_env.join_from(&else_env);
                        *env = then_env;
                        // The lower bound only charges branches that fall
                        // through (a branch that returns or breaks records
                        // its own path cost); the upper bound covers every
                        // branch.
                        let fall_lo = match (then_reach, else_env.reachable) {
                            (true, false) => tc.lo,
                            (false, true) => ec.lo,
                            _ => tc.lo.min(ec.lo),
                        };
                        let fall = CostInterval {
                            lo: fall_lo,
                            hi: tc.join(ec).hi,
                        };
                        *cost = cost.seq(cond_cost).seq(fall).add_const(1);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                self.while_loop(cond, body, env, cost, base, s.line);
            }
            StmtKind::ForRange {
                var,
                start,
                end,
                body,
            } => {
                self.for_range(var, start, end, body, env, cost, base);
            }
            StmtKind::Return(e) => {
                *cost = cost.add_const(1);
                let v = match e {
                    Some(e) => self.eval(e, env, cost),
                    None => AbsVal::of(TypeSet::NIL),
                };
                self.ret_vals.push(v);
                self.ret_los.push(base.saturating_add(cost.lo));
                env.reachable = false;
            }
            StmtKind::Break => {
                *cost = cost.seq(CostInterval { lo: 0, hi: Some(1) });
                let lo = base.saturating_add(cost.lo);
                if let Some((depth, envs)) = self.break_envs.last_mut() {
                    let mut e = env.clone();
                    e.truncate(*depth);
                    envs.push((e, lo));
                }
                env.reachable = false;
            }
            StmtKind::Continue => {
                *cost = cost.seq(CostInterval { lo: 0, hi: Some(1) });
                let lo = base.saturating_add(cost.lo);
                if let Some((depth, envs)) = self.continue_envs.last_mut() {
                    let mut e = env.clone();
                    e.truncate(*depth);
                    envs.push((e, lo));
                }
                env.reachable = false;
            }
            StmtKind::Block(b) => {
                *cost = cost.seq(CostInterval { lo: 0, hi: Some(1) });
                self.block(b, env, cost, base);
            }
        }
    }

    // -- loops -------------------------------------------------------------

    /// Runs `body` from `head` once, returning
    /// `(out env, breaks, continues, body cost)`. Break/continue records
    /// carry function-entry-relative path lower bounds.
    fn loop_body_pass(
        &mut self,
        body: &'a Block,
        head: &Env<'a>,
        prep: &dyn Fn(&mut Analyzer<'a>, &mut Env<'a>),
        body_base: u64,
        emit: bool,
    ) -> (Env<'a>, ExitPaths<'a>, ExitPaths<'a>, CostInterval) {
        let next_emit = emit && self.emit;
        let saved_emit = std::mem::replace(&mut self.emit, next_emit);
        let depth = head.scopes.len();
        self.break_envs.push((depth, Vec::new()));
        self.continue_envs.push((depth, Vec::new()));
        let mut it = head.clone();
        prep(self, &mut it);
        let mut bc = CostInterval::ZERO;
        self.block(body, &mut it, &mut bc, body_base);
        let (_, breaks) = self.break_envs.pop().expect("pushed above");
        let (_, continues) = self.continue_envs.pop().expect("pushed above");
        self.emit = saved_emit;
        (it, breaks, continues, bc)
    }

    /// Iterates a loop body to a widened head fixpoint, then runs one final
    /// emitting pass from the stable head. Returns
    /// `(stable head, out env, breaks, continues, body cost)`; `out` has
    /// continue paths already joined in (a continue completes an iteration).
    #[allow(clippy::type_complexity)]
    fn loop_fixpoint(
        &mut self,
        body: &'a Block,
        entry: &Env<'a>,
        prep: &dyn Fn(&mut Analyzer<'a>, &mut Env<'a>),
        body_base: u64,
    ) -> (Env<'a>, Env<'a>, ExitPaths<'a>, ExitPaths<'a>, CostInterval) {
        let mut head = entry.clone();
        for _ in 0..MAX_LOOP_ROUNDS {
            let (mut out, _breaks, continues, _c) =
                self.loop_body_pass(body, &head, prep, body_base, false);
            for (c, _) in &continues {
                out.join_from(c);
            }
            out.reachable = out.reachable || continues.iter().any(|(c, _)| c.reachable);
            let mut next = entry.clone();
            if out.reachable {
                next.join_from(&out);
            }
            let widened = head.widened_from(&next);
            if widened == head {
                break;
            }
            head = widened;
        }
        let (mut out, breaks, continues, bc) =
            self.loop_body_pass(body, &head, prep, body_base, true);
        for (c, _) in &continues {
            out.join_from(c);
        }
        out.reachable = out.reachable || continues.iter().any(|(c, _)| c.reachable);
        (head, out, breaks, continues, bc)
    }

    /// The cheapest completed iteration: the body fallthrough if it is
    /// reachable, or any `continue` path. `None` = no iteration can ever
    /// run to completion (every path breaks or returns).
    fn iteration_lo(
        out: &Env<'a>,
        body_lo: u64,
        continues: &[(Env<'a>, u64)],
        body_base: u64,
    ) -> Option<u64> {
        let mut lo = if out.reachable { Some(body_lo) } else { None };
        for (_, abs) in continues {
            let rel = abs.saturating_sub(body_base);
            lo = Some(lo.map_or(rel, |l| l.min(rel)));
        }
        lo
    }

    #[allow(clippy::too_many_arguments)]
    fn while_loop(
        &mut self,
        cond: &Expr,
        body: &'a Block,
        env: &mut Env<'a>,
        cost: &mut CostInterval,
        base: u64,
        line: u32,
    ) {
        let entry_lo = base.saturating_add(cost.lo);
        let mut cond_cost = CostInterval::ZERO;
        let entry_cv = self.eval(cond, env, &mut cond_cost);
        let entry_truth = self.truthiness(cond, &entry_cv, env);
        let syntactic = matches!(
            optimize::fold(cond).kind,
            ExprKind::Bool(_) | ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Nil
        );

        if entry_truth == Some(false) {
            // Loop body never runs. A syntactically-false loop is deleted
            // by the optimizer, so only the interpreter pays for it.
            let stmt = if syntactic { 0 } else { 2 };
            *cost = cost.seq(cond_cost).seq(CostInterval {
                lo: stmt,
                hi: Some(2),
            });
            self.refine(cond, false, env);
            return;
        }

        let body_base = entry_lo.saturating_add(cond_cost.lo).saturating_add(2);
        let refine_true = |a: &mut Analyzer<'a>, e: &mut Env<'a>| a.refine(cond, true, e);
        let (head, out, breaks, continues, body_cost) =
            self.loop_fixpoint(body, env, &refine_true, body_base);

        // W012: the stable head proves the condition true on every check and
        // nothing escapes the body — the loop spins until fuel runs out.
        // Syntactically-constant conditions are W005's (constant-condition)
        // beat, so skip those here.
        let head_cv = self.eval_pure(cond, &head);
        let head_truth = self.truthiness_in(cond, &head_cv, &head);
        let diverges =
            head_truth == Some(true) && !block_has_break(body) && !block_has_return(body);
        if diverges && !syntactic {
            self.warn(
                Code::NonTerminatingLoop,
                line,
                "loop condition is provably always true and the body never \
                 breaks or returns: the loop cannot terminate",
            );
        }

        // Exit env: condition false at the stable head, joined with breaks.
        let iter_lo = Self::iteration_lo(&out, body_cost.lo, &continues, body_base);
        let mut exit = head.clone();
        self.refine(cond, false, &mut exit);
        if head_truth == Some(true) {
            exit.reachable = false;
        }
        if entry_truth == Some(true) && iter_lo.is_none() {
            // A guaranteed first iteration that can never complete means
            // the condition is never re-checked: no normal exit.
            exit.reachable = false;
        }
        for (b, _) in &breaks {
            exit.join_from(b);
        }
        exit.reachable = exit.reachable || breaks.iter().any(|(b, _)| b.reachable);
        *env = exit;

        // Lower bound: cheapest exit arm. Every check of the condition
        // costs at least 2 (evaluate + branch), every completed iteration
        // at least `iter_lo`.
        let via_false = if head_truth == Some(true) {
            u64::MAX
        } else if entry_truth == Some(true) {
            // The first check passes, so one full iteration precedes the
            // exiting check.
            iter_lo.map_or(u64::MAX, |l| 2u64.saturating_add(l))
        } else {
            2
        };
        let via_break = breaks
            .iter()
            .map(|(_, abs)| abs.saturating_sub(body_base).saturating_add(2))
            .min()
            .unwrap_or(u64::MAX);
        let lo = via_false.min(via_break);
        *cost = cost.seq(cond_cost).seq(CostInterval { lo, hi: None });
    }

    #[allow(clippy::too_many_arguments)]
    fn for_range(
        &mut self,
        var: &'a str,
        start: &Expr,
        end: &Expr,
        body: &'a Block,
        env: &mut Env<'a>,
        cost: &mut CostInterval,
        base: u64,
    ) {
        let entry_lo = base.saturating_add(cost.lo);
        let mut range_cost = CostInterval::ZERO;
        let sv = self.eval(start, env, &mut range_cost);
        let ev = self.eval(end, env, &mut range_cost);
        for (v, e) in [(&sv, start), (&ev, end)] {
            if !v.is_bottom() && !v.types.may(TypeSet::NUM) {
                self.warn(
                    Code::TypeConfusion,
                    e.line,
                    format!("range bound is {}, not a number", v.types),
                );
            }
        }
        // Iteration count: ceil(end - start) clamped at 0.
        let count_lo = if ev.num.lo.is_finite() && sv.num.hi.is_finite() {
            (ev.num.lo - sv.num.hi).ceil().max(0.0) as u64
        } else {
            0
        };
        let count_hi = if ev.num.hi.is_finite() && sv.num.lo.is_finite() {
            let c = (ev.num.hi - sv.num.lo).ceil().max(0.0);
            Some(if c >= u64::MAX as f64 {
                u64::MAX
            } else {
                c as u64
            })
        } else {
            None
        };
        // The loop variable: integral steps from start, strictly below end.
        let var_hi = if sv.num.is_point()
            && sv.num.lo.fract() == 0.0
            && ev.num.hi.is_finite()
            && ev.num.hi.fract() == 0.0
        {
            ev.num.hi - 1.0
        } else {
            ev.num.hi
        };
        let var_iv = Interval::new(sv.num.lo, var_hi);
        let bind = move |_a: &mut Analyzer<'a>, e: &mut Env<'a>| {
            e.define(var, AbsVal::num_in(var_iv));
        };

        if count_hi == Some(0) {
            // Provably zero iterations: still pay for the range setup.
            *cost = cost
                .seq(range_cost)
                .seq(CostInterval { lo: 1, hi: Some(1) });
            return;
        }

        let body_base = entry_lo.saturating_add(range_cost.lo).saturating_add(2);
        let (head, out, breaks, continues, body_cost) =
            self.loop_fixpoint(body, env, &bind, body_base);

        let mut exit = head;
        // A guaranteed first iteration whose every path breaks or returns
        // means the range is never exhausted normally.
        let iter_lo = Self::iteration_lo(&out, body_cost.lo, &continues, body_base);
        if count_lo >= 1 && iter_lo.is_none() && breaks.is_empty() {
            exit.reachable = false;
        }
        for (b, _) in &breaks {
            exit.join_from(b);
        }
        exit.reachable = exit.reachable || breaks.iter().any(|(b, _)| b.reachable);
        *env = exit;

        // Lower bound: exhaust the range, or break out of an iteration.
        let via_exhaust = match iter_lo {
            Some(l) => 1u64.saturating_add(count_lo.saturating_mul(1u64.saturating_add(l))),
            None if count_lo == 0 => 1,
            None => u64::MAX,
        };
        let via_break = breaks
            .iter()
            .map(|(_, abs)| abs.saturating_sub(body_base).saturating_add(2))
            .min()
            .unwrap_or(u64::MAX);
        let lo = via_exhaust.min(via_break);
        let hi = match (body_cost.hi, count_hi) {
            (Some(bh), Some(ch)) => Some(ch.saturating_mul(bh.saturating_add(1)).saturating_add(1)),
            _ => None,
        };
        *cost = cost.seq(range_cost).seq(CostInterval { lo, hi });
    }

    // -- expressions -------------------------------------------------------

    /// Evaluates an expression without mutating `env`, emitting diagnostics,
    /// or accumulating cost — used by condition refinement and truthiness.
    fn eval_pure(&mut self, e: &Expr, env: &Env<'a>) -> AbsVal {
        let saved = std::mem::replace(&mut self.emit, false);
        let mut scratch = env.clone();
        let mut c = CostInterval::ZERO;
        let v = self.eval(e, &mut scratch, &mut c);
        self.emit = saved;
        v
    }

    fn eval(&mut self, e: &Expr, env: &mut Env<'a>, cost: &mut CostInterval) -> AbsVal {
        match &e.kind {
            ExprKind::Num(n) => AbsVal::num(*n),
            ExprKind::Str(_) => AbsVal::of(TypeSet::STR),
            ExprKind::Bool(_) => AbsVal::of(TypeSet::BOOL),
            ExprKind::Nil => AbsVal::of(TypeSet::NIL),
            ExprKind::Var(n) => env.get(n),
            ExprKind::Array(items) => {
                for it in items {
                    self.eval(it, env, cost);
                }
                AbsVal::array(TypeSet::ARR, Interval::point(items.len() as f64))
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let l = self.eval(lhs, env, cost);
                let r = self.eval(rhs, env, cost);
                self.binop(*op, &l, &r, lhs.line, rhs.line)
            }
            ExprKind::And(a, b) | ExprKind::Or(a, b) => {
                let l = self.eval(a, env, cost);
                // The right side may be skipped: its calls cost nothing on
                // the lower bound, everything on the upper.
                let mut rc = CostInterval::ZERO;
                let r = self.eval(b, env, &mut rc);
                *cost = cost.seq(CostInterval { lo: 0, hi: rc.hi });
                l.join(&r)
            }
            ExprKind::Un { op, expr } => {
                let v = self.eval(expr, env, cost);
                match op {
                    UnOp::Neg => {
                        if !v.is_bottom() && !v.types.may(TypeSet::NUM) {
                            self.warn(
                                Code::TypeConfusion,
                                expr.line,
                                format!("negation of a {} value", v.types),
                            );
                        }
                        AbsVal::num_in(v.num.neg())
                    }
                    UnOp::Not => AbsVal::of(TypeSet::BOOL),
                }
            }
            ExprKind::Call { name, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env, cost));
                }
                self.call(name, args, &argv, env, cost, e.line)
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base, env, cost);
                let i = self.eval(index, env, cost);
                self.check_index(&b, &i, index.line);
                if b.types.definitely(TypeSet::FARR) {
                    AbsVal::num_in(Interval::TOP)
                } else {
                    AbsVal::top()
                }
            }
        }
    }

    fn binop(&mut self, op: BinOp, l: &AbsVal, r: &AbsVal, lline: u32, rline: u32) -> AbsVal {
        if l.is_bottom() || r.is_bottom() {
            return AbsVal::bottom();
        }
        let both_num = l.types.may(TypeSet::NUM) && r.types.may(TypeSet::NUM);
        let both_str = l.types.may(TypeSet::STR) && r.types.may(TypeSet::STR);
        match op {
            BinOp::Add => {
                if !both_num && !both_str {
                    self.warn(
                        Code::TypeConfusion,
                        lline,
                        format!("`+` cannot combine {} with {}", l.types, r.types),
                    );
                    return AbsVal::bottom();
                }
                let mut t = TypeSet::EMPTY;
                if both_num {
                    t = t.union(TypeSet::NUM);
                }
                if both_str {
                    t = t.union(TypeSet::STR);
                }
                AbsVal {
                    types: t,
                    num: l.num.add(r.num),
                    len: LEN_TOP,
                }
            }
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                if !l.types.may(TypeSet::NUM) || !r.types.may(TypeSet::NUM) {
                    self.warn(
                        Code::TypeConfusion,
                        lline,
                        format!("arithmetic on {} and {}", l.types, r.types),
                    );
                    return AbsVal::bottom();
                }
                if matches!(op, BinOp::Div | BinOp::Mod)
                    && r.types.definitely(TypeSet::NUM)
                    && r.num == Interval::point(0.0)
                {
                    self.warn(
                        Code::DivisionByZero,
                        rline,
                        "denominator is provably zero".to_owned(),
                    );
                    return AbsVal::bottom();
                }
                let iv = match op {
                    BinOp::Sub => l.num.sub(r.num),
                    BinOp::Mul => l.num.mul(r.num),
                    BinOp::Div => l.num.div(r.num),
                    BinOp::Mod => l.num.rem(r.num),
                    _ => unreachable!(),
                };
                AbsVal::num_in(iv)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !both_num && !both_str {
                    self.warn(
                        Code::TypeConfusion,
                        lline,
                        format!("comparison of {} with {}", l.types, r.types),
                    );
                }
                AbsVal::of(TypeSet::BOOL)
            }
            BinOp::Eq | BinOp::Ne => AbsVal::of(TypeSet::BOOL),
        }
    }

    fn check_index(&mut self, base: &AbsVal, index: &AbsVal, line: u32) {
        if base.is_bottom() || index.is_bottom() {
            return;
        }
        if !base.types.may_array() {
            self.warn(
                Code::TypeConfusion,
                line,
                format!("indexing into a {} value", base.types),
            );
            return;
        }
        if !index.types.may(TypeSet::NUM) {
            self.warn(
                Code::TypeConfusion,
                line,
                format!("array index is {}, not a number", index.types),
            );
            return;
        }
        let definite_array = base.types.definitely(TypeSet::ARR.union(TypeSet::FARR));
        let definite_num = index.types.definitely(TypeSet::NUM);
        if definite_array && definite_num {
            if index.num.hi < 0.0 {
                self.warn(
                    Code::ProvableOutOfBounds,
                    line,
                    format!("index is provably negative ({})", index.num),
                );
            } else if base.len.hi.is_finite() && index.num.lo >= base.len.hi {
                self.warn(
                    Code::ProvableOutOfBounds,
                    line,
                    format!(
                        "index {} is provably past the end of an array of length {}",
                        index.num, base.len
                    ),
                );
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        argv: &[AbsVal],
        env: &mut Env<'a>,
        cost: &mut CostInterval,
        line: u32,
    ) -> AbsVal {
        // User functions shadow builtins, matching the interpreter.
        if let Some(&idx) = self.fn_index.get(name) {
            let s = self.summaries[idx].clone();
            *cost = cost.seq(s.cost);
            // The callee may push to any array reachable from its
            // arguments; lengths of possibly-passed arrays are no longer
            // upper-bounded.
            if argv.iter().any(|a| a.types.may_array()) {
                env.widen_array_lengths();
            }
            return s.ret;
        }
        let arg = |i: usize| argv.get(i).copied().unwrap_or_else(AbsVal::top);
        let expect = |a: &mut Analyzer<'a>, i: usize, mask: TypeSet, what: &str| {
            let v = arg(i);
            if !v.is_bottom() && !v.types.may(mask) {
                let ln = args.get(i).map_or(line, |e| e.line);
                a.warn(
                    Code::TypeConfusion,
                    ln,
                    format!("`{name}` expects {what}, got {}", v.types),
                );
                false
            } else {
                true
            }
        };
        match name {
            "len" => {
                expect(
                    self,
                    0,
                    TypeSet::ARR.union(TypeSet::FARR).union(TypeSet::STR),
                    "an array or string",
                );
                let v = arg(0);
                let iv = if v.types.definitely(TypeSet::ARR.union(TypeSet::FARR)) {
                    v.len
                } else {
                    Interval::new(0.0, f64::INFINITY)
                };
                AbsVal::num_in(iv)
            }
            "push" => {
                expect(self, 0, TypeSet::ARR.union(TypeSet::FARR), "an array");
                if arg(0).types.definitely(TypeSet::FARR) {
                    expect(self, 1, TypeSet::NUM, "a number for a float array");
                }
                // Any alias of the pushed array also grows.
                env.widen_array_lengths();
                if let Some(Expr {
                    kind: ExprKind::Var(n),
                    ..
                }) = args.first()
                {
                    env.update(n, |v| {
                        v.len = Interval::new(v.len.lo + 1.0, f64::INFINITY);
                    });
                }
                AbsVal::of(TypeSet::NIL)
            }
            "sqrt" => {
                expect(self, 0, TypeSet::NUM, "a number");
                let v = arg(0);
                if v.types.definitely(TypeSet::NUM) && v.num.hi < 0.0 {
                    self.warn(
                        Code::NumericDomain,
                        args.first().map_or(line, |e| e.line),
                        format!("`sqrt` of a provably-negative value ({})", v.num),
                    );
                }
                let lo = if v.num.lo > 0.0 { v.num.lo.sqrt() } else { 0.0 };
                let hi = if v.num.hi >= 0.0 {
                    v.num.hi.sqrt()
                } else {
                    f64::INFINITY
                };
                AbsVal::num_in(Interval::new(lo, hi))
            }
            "abs" => {
                expect(self, 0, TypeSet::NUM, "a number");
                let iv = arg(0).num;
                let out = if iv.lo >= 0.0 {
                    iv
                } else if iv.hi <= 0.0 {
                    iv.neg()
                } else {
                    Interval::new(0.0, (-iv.lo).max(iv.hi))
                };
                AbsVal::num_in(out)
            }
            "floor" => {
                expect(self, 0, TypeSet::NUM, "a number");
                let iv = arg(0).num;
                AbsVal::num_in(Interval::new(iv.lo.floor(), iv.hi.floor()))
            }
            "min" | "max" => {
                expect(self, 0, TypeSet::NUM, "a number");
                expect(self, 1, TypeSet::NUM, "a number");
                let (a, b) = (arg(0).num, arg(1).num);
                let iv = if name == "min" {
                    Interval::new(a.lo.min(b.lo), a.hi.min(b.hi))
                } else {
                    Interval::new(a.lo.max(b.lo), a.hi.max(b.hi))
                };
                AbsVal::num_in(iv)
            }
            "fill" | "zeros" => {
                expect(self, 0, TypeSet::NUM, "a number");
                if name == "fill" {
                    expect(self, 1, TypeSet::NUM, "a number");
                }
                let n = arg(0);
                if n.types.definitely(TypeSet::NUM) && n.num.hi < 0.0 {
                    self.warn(
                        Code::NumericDomain,
                        args.first().map_or(line, |e| e.line),
                        format!("`{name}` with a provably-negative length ({})", n.num),
                    );
                }
                AbsVal::array(
                    TypeSet::FARR,
                    Interval::new(n.num.lo.max(0.0), n.num.hi.max(0.0)),
                )
            }
            "vsum" => {
                expect(self, 0, TypeSet::FARR, "a float array");
                AbsVal::num_in(Interval::TOP)
            }
            "vdot" => {
                expect(self, 0, TypeSet::FARR, "a float array");
                expect(self, 1, TypeSet::FARR, "a float array");
                AbsVal::num_in(Interval::TOP)
            }
            "vaxpy" => {
                expect(self, 0, TypeSet::NUM, "a number");
                expect(self, 1, TypeSet::FARR, "a float array");
                expect(self, 2, TypeSet::FARR, "a float array");
                AbsVal::of(TypeSet::NIL)
            }
            "vscale" => {
                expect(self, 0, TypeSet::NUM, "a number");
                expect(self, 1, TypeSet::FARR, "a float array");
                AbsVal::of(TypeSet::NIL)
            }
            "print" => AbsVal::of(TypeSet::NIL),
            // Unknown callee: W001's beat; assume anything.
            _ => AbsVal::top(),
        }
    }

    // -- conditions --------------------------------------------------------

    /// Definite truthiness of `e` under `env`, given its already-computed
    /// abstract value `v`.
    fn truthiness(&mut self, e: &Expr, v: &AbsVal, env: &Env<'a>) -> Option<bool> {
        if let Some(t) = v.truthiness() {
            return Some(t);
        }
        self.truthiness_in(e, v, env)
    }

    /// Structural truthiness: decides comparisons via intervals and
    /// composes through `not`/`and`/`or`.
    fn truthiness_in(&mut self, e: &Expr, v: &AbsVal, env: &Env<'a>) -> Option<bool> {
        if let Some(t) = v.truthiness() {
            return Some(t);
        }
        match &e.kind {
            ExprKind::Bool(b) => Some(*b),
            ExprKind::Nil => Some(false),
            ExprKind::Num(_) | ExprKind::Str(_) | ExprKind::Array(_) => Some(true),
            ExprKind::Un {
                op: UnOp::Not,
                expr,
            } => {
                let iv = self.eval_pure(expr, env);
                self.truthiness_in(expr, &iv, env).map(|t| !t)
            }
            ExprKind::And(a, b) => {
                let av = self.eval_pure(a, env);
                let bv = self.eval_pure(b, env);
                match (
                    self.truthiness_in(a, &av, env),
                    self.truthiness_in(b, &bv, env),
                ) {
                    (Some(false), _) => Some(false),
                    (Some(true), t) => t,
                    _ => None,
                }
            }
            ExprKind::Or(a, b) => {
                let av = self.eval_pure(a, env);
                let bv = self.eval_pure(b, env);
                match (
                    self.truthiness_in(a, &av, env),
                    self.truthiness_in(b, &bv, env),
                ) {
                    (Some(true), _) => Some(true),
                    (Some(false), t) => t,
                    _ => None,
                }
            }
            ExprKind::Bin { op, lhs, rhs } => {
                let l = self.eval_pure(lhs, env);
                let r = self.eval_pure(rhs, env);
                if l.is_bottom() || r.is_bottom() {
                    return None;
                }
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        let ne = *op == BinOp::Ne;
                        // Disjoint type sets can never be equal.
                        if l.types.inter(r.types).is_empty() {
                            return Some(ne);
                        }
                        if l.types.definitely(TypeSet::NUM) && r.types.definitely(TypeSet::NUM) {
                            if l.num.is_point() && r.num.is_point() && l.num.lo == r.num.lo {
                                return Some(!ne);
                            }
                            if l.num.meet(r.num).is_none() {
                                return Some(ne);
                            }
                        }
                        None
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if !(l.types.definitely(TypeSet::NUM) && r.types.definitely(TypeSet::NUM)) {
                            return None;
                        }
                        let (a, b) = (l.num, r.num);
                        match op {
                            BinOp::Lt if a.hi < b.lo => Some(true),
                            BinOp::Lt if a.lo >= b.hi => Some(false),
                            BinOp::Le if a.hi <= b.lo => Some(true),
                            BinOp::Le if a.lo > b.hi => Some(false),
                            BinOp::Gt if a.lo > b.hi => Some(true),
                            BinOp::Gt if a.hi <= b.lo => Some(false),
                            BinOp::Ge if a.lo >= b.hi => Some(true),
                            BinOp::Ge if a.hi < b.lo => Some(false),
                            _ => None,
                        }
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Narrows `env` under the assumption that `cond` evaluated to `truth`.
    fn refine(&mut self, cond: &Expr, truth: bool, env: &mut Env<'a>) {
        match &cond.kind {
            ExprKind::Var(n) => {
                env.update(n, |v| {
                    if truth {
                        v.types = v.types.inter(TypeSet(!TypeSet::NIL.0 & TypeSet::ANY.0));
                    } else {
                        v.types = v.types.inter(TypeSet::NIL.union(TypeSet::BOOL));
                    }
                });
            }
            ExprKind::Un {
                op: UnOp::Not,
                expr,
            } => self.refine(expr, !truth, env),
            ExprKind::And(a, b) if truth => {
                self.refine(a, true, env);
                self.refine(b, true, env);
            }
            ExprKind::Or(a, b) if !truth => {
                self.refine(a, false, env);
                self.refine(b, false, env);
            }
            ExprKind::Bin { op, lhs, rhs } => {
                // Orient as `effective_op` on (lhs, rhs), then apply bounds
                // to whichever side is a plain variable.
                let op = if truth {
                    *op
                } else {
                    match op {
                        BinOp::Lt => BinOp::Ge,
                        BinOp::Le => BinOp::Gt,
                        BinOp::Gt => BinOp::Le,
                        BinOp::Ge => BinOp::Lt,
                        BinOp::Eq => BinOp::Ne,
                        BinOp::Ne => BinOp::Eq,
                        _ => return,
                    }
                };
                let l = self.eval_pure(lhs, env);
                let r = self.eval_pure(rhs, env);
                self.refine_side(lhs, &r, op, false, env);
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => other,
                };
                self.refine_side(rhs, &l, flipped, true, env);
            }
            _ => {}
        }
    }

    /// Applies `var op bound` narrowing when `side` is a variable.
    fn refine_side(
        &mut self,
        side: &Expr,
        bound: &AbsVal,
        op: BinOp,
        _right: bool,
        env: &mut Env<'a>,
    ) {
        let ExprKind::Var(name) = &side.kind else {
            return;
        };
        if bound.is_bottom() {
            return;
        }
        let b = bound.num;
        let bt = bound.types;
        env.update(name, |v| match op {
            BinOp::Lt | BinOp::Le => {
                // Successful comparison implies a comparable type.
                v.types = v.types.inter(TypeSet::NUM.union(TypeSet::STR));
                v.num = Interval::new(v.num.lo, v.num.hi.min(b.hi));
            }
            BinOp::Gt | BinOp::Ge => {
                v.types = v.types.inter(TypeSet::NUM.union(TypeSet::STR));
                v.num = Interval::new(v.num.lo.max(b.lo), v.num.hi);
            }
            BinOp::Eq => {
                v.types = v.types.inter(bt);
                if bt.definitely(TypeSet::NUM) {
                    v.num = v.num.meet(b).unwrap_or(b);
                }
            }
            _ => {}
        });
    }
}

/// True when the block directly contains a `break` binding to the enclosing
/// loop (does not descend into nested loops).
fn block_has_break(b: &Block) -> bool {
    b.iter().any(|s| match &s.kind {
        StmtKind::Break => true,
        StmtKind::If {
            then_block,
            else_block,
            ..
        } => block_has_break(then_block) || block_has_break(else_block),
        StmtKind::Block(inner) => block_has_break(inner),
        _ => false,
    })
}

/// True when the block contains a `return` anywhere (including nested
/// loops — a return escapes them all).
fn block_has_return(b: &Block) -> bool {
    b.iter().any(|s| match &s.kind {
        StmtKind::Return(_) => true,
        StmtKind::If {
            then_block,
            else_block,
            ..
        } => block_has_return(then_block) || block_has_return(else_block),
        StmtKind::Block(inner) | StmtKind::While { body: inner, .. } => block_has_return(inner),
        StmtKind::ForRange { body, .. } => block_has_return(body),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn run(src: &str) -> Analysis {
        analyze(&parser::parse(src).expect("parses"))
    }

    fn codes(src: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = run(src).diagnostics.iter().map(|d| d.code.id()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn intervals_track_constants_and_arithmetic() {
        let a = run("let x = 3; let y = x * 2 + 1;");
        let y = a.main_vars.iter().find(|(n, _)| n == "y").unwrap();
        assert_eq!(y.1.num, Interval::point(7.0));
        assert!(y.1.types.definitely(TypeSet::NUM));
    }

    #[test]
    fn widening_stabilizes_counting_loops() {
        let a = run("let i = 0; while i < 10 { i = i + 1; } i");
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        let i = a.main_vars.iter().find(|(n, _)| n == "i").unwrap();
        // After the loop the condition is false: i >= 10 is not provable
        // pointwise (widening loses the upper bound), but i >= 0 survives.
        assert!(i.1.num.lo >= 0.0, "{}", i.1.num);
    }

    #[test]
    fn w009_fires_on_provable_out_of_bounds() {
        assert_eq!(codes("let a = zeros(4); a[10]"), vec!["W009"]);
        assert_eq!(codes("let a = [1, 2]; a[0 - 1]"), vec!["W009"]);
        assert!(codes("let a = zeros(4); a[3]").is_empty());
        // A push makes the length unbounded: no proof, no warning.
        assert!(codes("let a = [1]; push(a, 2); a[5]").is_empty());
    }

    #[test]
    fn w010_fires_on_provable_type_confusion() {
        assert_eq!(codes("let s = \"x\"; s * 2"), vec!["W010"]);
        assert_eq!(codes("let n = 1; n[0]"), vec!["W010"]);
        assert_eq!(codes("let a = zeros(2); a + 1"), vec!["W010"]);
        assert!(codes("let n = 1; n + 2").is_empty());
    }

    #[test]
    fn w011_fires_on_provable_domain_errors() {
        assert_eq!(codes("sqrt(0 - 1)"), vec!["W011"]);
        assert_eq!(codes("zeros(0 - 5)"), vec!["W011"]);
        assert!(codes("sqrt(4)").is_empty());
        assert!(codes("let x = 0 - 4; sqrt(abs(x))").is_empty());
    }

    #[test]
    fn w012_fires_on_provably_stuck_loops() {
        assert_eq!(codes("let i = 0; while i < 10 { i = i; }"), vec!["W012"]);
        assert_eq!(
            codes("let i = 0; let s = 0; while i < 3 { s = s + 1; }"),
            vec!["W012"]
        );
        // An incrementing loop terminates; a breaking loop escapes.
        assert!(codes("let i = 0; while i < 10 { i = i + 1; }").is_empty());
        assert!(codes("let i = 0; while i < 10 { if i == 2 { break; } i = i; }").is_empty());
        // Syntactic `while true` is W005's beat, not W012's.
        assert!(codes("while true { let x = 1; }").is_empty());
    }

    #[test]
    fn w008_uses_interval_facts() {
        assert_eq!(codes("let n = 1; n / 0"), vec!["W008"]);
        assert_eq!(codes("let n = 1; let d = 0; n / d"), vec!["W008"]);
        assert_eq!(codes("let n = 1; let d = 3 - 3; n % d"), vec!["W008"]);
        assert!(codes("let n = 1; let d = 2; n / d").is_empty());
        // The lattice cannot confirm a zero that only *might* flow here.
        assert!(codes("let d = 0; let n = 1; if n > 0 { d = 2; } n / d").is_empty());
    }

    #[test]
    fn shadowed_names_and_pushes_in_conditions_keep_their_facts() {
        // `x` is shadowed twice in nested scopes (a string, then a loop
        // number) and `n` once inside `grow`; every inner binding and
        // assignment stays local, so only the outer bindings reach the
        // facts. `push` in an `if` condition grows `a` (length at least
        // 3) even though truthiness re-evaluates the condition on a
        // scratch copy of the env. Costs: `grow` is let + if + return
        // (3) up to 5 with the branch; main is 2 lets, the proven-true
        // `if` (1 + let + a 3-trip loop of 10 + an inner `if` of 1–2),
        // the unknown `if` (1–2), `let g` with `grow`'s [3, 5], and the
        // trailing expression's 0–1.
        let src = "fn grow(v) {
              let n = 0;
              if push(v, 1) == nil { let n = len(v); n = n + 1; }
              return n;
            }
            let x = 1;
            let a = [1, 2];
            if x > 0 {
              let x = \"s\";
              for i in range(0, 3) { let x = i * 2; x = x + 1; }
              if len(x) > 0 { x = x + \"t\"; }
            }
            if push(a, 3) == nil { x = x + 10; }
            let g = grow(a);
            x";
        assert_eq!(
            run(src).render_facts(),
            "fn grow(v) -> num [0, 0] cost [3, 5]\n\
             main cost [20, 25]\n\
             main result num [1, 11]\n  \
             a: array len[3, +inf]\n  \
             g: num [0, 0]\n  \
             x: num [1, 11]\n"
        );
    }

    #[test]
    fn refinement_narrows_branches() {
        // Inside the branch, x is known non-negative, so sqrt is fine.
        assert!(codes("let x = 0 - 3; if x >= 0 { sqrt(x); }").is_empty());
        // The else branch proves x negative.
        assert_eq!(
            codes("let x = 0 - 3; if x >= 0 { print(x); } else { sqrt(x); }"),
            vec!["W011"]
        );
    }

    #[test]
    fn function_summaries_are_interprocedural() {
        let a = run("fn make(n) { return zeros(n); } let a = make(8); a[0]");
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.facts.returns_float_array("make"));
        let make = a.functions.iter().find(|f| f.name == "make").unwrap();
        assert!(make.ret.types.definitely(TypeSet::FARR));
    }

    #[test]
    fn fallthrough_functions_return_nil_too() {
        let a = run("fn maybe(n) { if n > 0 { return zeros(n); } } maybe(1)");
        assert!(!a.facts.returns_float_array("maybe"));
        let f = a.functions.iter().find(|f| f.name == "maybe").unwrap();
        assert!(f.ret.types.may(TypeSet::NIL));
        assert!(f.ret.types.may(TypeSet::FARR));
    }

    #[test]
    fn recursive_functions_converge() {
        let a = run("fn fib(n) { if n < 2 { return n; } return fib(n - 1) + fib(n - 2); } fib(10)");
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        let f = a.functions.iter().find(|f| f.name == "fib").unwrap();
        assert!(f.ret.types.may(TypeSet::NUM));
        assert_eq!(f.cost.hi, None, "recursion has no static upper bound");
        assert!(f.cost.lo >= 1);
    }

    #[test]
    fn cost_intervals_bracket_straight_line_code() {
        let a = run("let x = 1; let y = 2; x + y");
        // Two lets at 1 fuel each; the final expression may be free on the VM.
        assert_eq!(a.cost.program.lo, 2);
        assert_eq!(a.cost.program.hi, Some(3));
    }

    #[test]
    fn loop_costs_scale_with_the_trip_count() {
        let a = run("let s = 0; for i in range(0, 100) { s = s + i; }");
        // 1 (let) + 1 (for) + 100 * (1 + 1 body statement) = 202 on the nose.
        assert_eq!(a.cost.program.lo, 202);
        assert_eq!(a.cost.program.hi, Some(202));
    }

    #[test]
    fn infeasible_loops_poison_the_lower_bound() {
        let a = run("let i = 0; while i < 10 { i = i; }");
        assert_eq!(a.cost.program.lo, u64::MAX);
    }

    #[test]
    fn main_result_abstracts_the_program_value() {
        let a = run("let x = 2; x * 3");
        assert!(a.main_result.types.definitely(TypeSet::NUM));
        assert_eq!(a.main_result.num, Interval::point(6.0));
        let a = run("let x = 1;");
        assert!(a.main_result.types.definitely(TypeSet::NIL));
    }

    #[test]
    fn facts_render_deterministically() {
        let src = "fn make(n) { return zeros(n); } let a = make(4); let x = 1; a[0]";
        let a = run(src);
        let b = run(src);
        assert_eq!(a.render_facts(), b.render_facts());
        let text = a.render_facts();
        assert!(text.contains("fn make(n) -> farray"), "{text}");
        assert!(text.contains("main cost"), "{text}");
    }

    #[test]
    fn clean_kernels_stay_clean() {
        for src in [
            "let a = fill(64, 1.5); let b = fill(64, 2.0); vdot(a, b)",
            "let s = 0; for i in range(0, 50) { if i % 2 == 0 { continue; } s = s + i; } s",
            "fn f(n) { if n < 2 { return n; } return f(n - 1) + f(n - 2); } f(10)",
            "let a = [1, 2, 3]; a[0] = a[1] + a[2]; a[0]",
            "let i = 0; while i < 10 { i = i + 1; } i",
        ] {
            assert!(codes(src).is_empty(), "false positive on `{src}`");
        }
    }
}
