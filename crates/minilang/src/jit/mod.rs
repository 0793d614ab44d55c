//! The JIT tier (`vm_jit`): runtime compilation of hot bytecode to a
//! typed register IR executed by a compiled tier in safe Rust.
//!
//! ResearchScript's execution ladder is interp → vm → vm_fused → vm_jit.
//! The first three run (fused) stack bytecode; this module adds a fourth
//! tier that translates a function's fused bytecode into basic blocks of
//! register instructions over three typed register files (the `ir`
//! submodule),
//! seeded from three static sources:
//!
//! * **entry guards** — at tier-up the arguments of the triggering call
//!   fix a [`ParamSpec`] per parameter (number / float array / any);
//!   later calls that don't match the guards deoptimize to the VM;
//! * the peephole pass's **FloatArray slot proofs**
//!   (`peephole::proven_float_slots`), joined into the slot-type fixpoint;
//! * `absint`'s [`TypeFacts`] — calls to functions proven to return float
//!   arrays land directly in unboxed array registers.
//!
//! Tiering is driven by per-function hotness counters
//! ([`JitConfig::hotness_threshold`]): every `CallFn` the VM dispatches
//! (and program entry) counts, and once a function is hot it is
//! translated at most once — subsequent calls reuse the compiled code or,
//! if translation was rejected, stay on the fused VM forever. Compiled
//! code is plain data (`Send + Sync`), so a [`SharedJitCache`] can carry
//! it across executions and threads — `rcr-serve` hangs one off each
//! program-cache entry, keyed by the same content hash.
//!
//! Parity contract (test-enforced in `lib.rs`, `tests/prop_equivalence`):
//! outputs, errors (messages *and* lines), fuel accounting, and memory
//! accounting are bit-identical to the fused VM for every program, every
//! budget, and every deopt path.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::absint::TypeFacts;
use crate::bytecode::Compiled;
use crate::peephole;
use crate::value::Value;

pub(crate) mod exec;
mod ir;
mod translate;

pub use ir::{render_jit_fn, JitFn, ParamSpec};

/// Tuning knobs for the JIT tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitConfig {
    /// Number of calls before a function tiers up (`0` behaves as `1`).
    /// The default of 1 compiles on first call. Translation costs
    /// 0.14–0.27 µs per fused op and the compiled tier saves 2.3–6.7 ns
    /// per unit of fuel (2-vCPU Xeon host), so one call repays it once the
    /// function spends some 20–120 fuel per op — true of every hot loop,
    /// and study workloads call each kernel exactly once. Short one-shot
    /// scripts do not repay it; `rcr-serve` runs the first execution of
    /// those on the fused VM without an engine (its `JIT_MIN_FUEL_PER_OP`).
    pub hotness_threshold: u32,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            hotness_threshold: 1,
        }
    }
}

/// Per-function tiering state.
enum FnState {
    /// Seen `n` calls, not yet hot.
    Cold(u32),
    /// Compiled and executable.
    Ready(Arc<JitFn>),
    /// The translator declined this function; stay on the VM forever.
    Reject,
}

/// Observability counters (primarily for tests and `rsc --time`).
#[derive(Debug, Default)]
pub struct JitStats {
    compiled: Cell<u32>,
    jit_calls: Cell<u64>,
    deopts: Cell<u64>,
}

impl JitStats {
    /// Functions compiled to register IR in this engine.
    pub fn compiled(&self) -> u32 {
        self.compiled.get()
    }
    /// Calls executed by the compiled tier.
    pub fn jit_calls(&self) -> u64 {
        self.jit_calls.get()
    }
    /// Calls to compiled functions that fell back to the VM because an
    /// entry guard failed.
    pub fn deopts(&self) -> u64 {
        self.deopts.get()
    }
}

/// What the shared cache remembers about one function.
enum SharedEntry {
    Ready(Arc<JitFn>),
    Reject,
}

/// The static seeds of one program's translations, a pure function of
/// its compiled code and type facts.
struct Seeds {
    /// Per-function FloatArray slot proofs from the peephole pass.
    proven: Vec<Vec<bool>>,
    /// Per-function "returns a float array on every path" facts.
    farr_fns: Vec<bool>,
}

impl Seeds {
    fn compute(compiled: &Compiled, facts: Option<&TypeFacts>) -> Seeds {
        Seeds {
            proven: peephole::proven_float_slots(compiled, facts),
            farr_fns: compiled
                .funcs
                .iter()
                .map(|f| facts.is_some_and(|t| t.returns_float_array(&f.name)))
                .collect(),
        }
    }
}

/// Cross-execution, cross-thread cache of compiled functions for one
/// program. Compiled code is plain data, so a service can attach one of
/// these to a compiled-program cache entry (keyed by the program's
/// content hash) and every request on every worker reuses the same
/// translations instead of re-tiering from cold. The translator's static
/// seeds are computed by the first engine built on the cache and reused
/// by the rest, so every engine sharing a cache must be built for the
/// same program and facts.
#[derive(Default)]
pub struct SharedJitCache {
    entries: Mutex<HashMap<usize, SharedEntry>>,
    seeds: OnceLock<Arc<Seeds>>,
}

impl std::fmt::Debug for SharedJitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedJitCache")
            .field("entries", &self.len())
            .finish()
    }
}

impl SharedJitCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of functions with a recorded outcome (compiled or rejected).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("jit cache lock").len()
    }

    /// True when no outcome has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, fidx: usize) -> Option<FnState> {
        let entries = self.entries.lock().expect("jit cache lock");
        entries.get(&fidx).map(|e| match e {
            SharedEntry::Ready(code) => FnState::Ready(code.clone()),
            SharedEntry::Reject => FnState::Reject,
        })
    }

    fn publish(&self, fidx: usize, outcome: Option<Arc<JitFn>>) {
        let mut entries = self.entries.lock().expect("jit cache lock");
        entries.entry(fidx).or_insert(match outcome {
            Some(code) => SharedEntry::Ready(code),
            None => SharedEntry::Reject,
        });
    }
}

/// One program's JIT engine: hotness counters, compiled code, static
/// seeds, and stats. Borrowed (not owned) by [`crate::vm::Vm::run_jit`],
/// so an engine outlives any number of runs and keeps its heat.
pub struct Jit {
    cfg: JitConfig,
    fns: Vec<RefCell<FnState>>,
    seeds: Arc<Seeds>,
    stats: JitStats,
    shared: Option<Arc<SharedJitCache>>,
}

impl Jit {
    /// Creates an engine for `compiled`, seeding register types from the
    /// optional `absint` facts (pass the same facts that drove the
    /// peephole pass so all three analyses agree).
    pub fn new(compiled: &Compiled, cfg: JitConfig, facts: Option<&TypeFacts>) -> Self {
        Self::build(compiled, cfg, facts, None)
    }

    /// Like [`Jit::new`], but backed by a shared cache: already-compiled
    /// functions start [hot], and new compilations are published for
    /// other executions of the same program.
    ///
    /// [hot]: JitConfig::hotness_threshold
    pub fn with_shared(
        compiled: &Compiled,
        cfg: JitConfig,
        facts: Option<&TypeFacts>,
        shared: Arc<SharedJitCache>,
    ) -> Self {
        Self::build(compiled, cfg, facts, Some(shared))
    }

    fn build(
        compiled: &Compiled,
        cfg: JitConfig,
        facts: Option<&TypeFacts>,
        shared: Option<Arc<SharedJitCache>>,
    ) -> Self {
        let seeds = match &shared {
            Some(s) => Arc::clone(
                s.seeds
                    .get_or_init(|| Arc::new(Seeds::compute(compiled, facts))),
            ),
            None => Arc::new(Seeds::compute(compiled, facts)),
        };
        let fns = (0..compiled.funcs.len())
            .map(|fidx| {
                let seeded = shared.as_deref().and_then(|s| s.get(fidx));
                RefCell::new(seeded.unwrap_or(FnState::Cold(0)))
            })
            .collect();
        Jit {
            cfg,
            fns,
            seeds,
            stats: JitStats::default(),
            shared,
        }
    }

    /// Observability counters.
    pub fn stats(&self) -> &JitStats {
        &self.stats
    }

    /// Counts one call to function `fidx` and returns its compiled code
    /// once hot. The first call that crosses the hotness threshold fixes
    /// the entry guards from `args`' types and translates the function;
    /// the outcome (code or rejection) is permanent for this engine.
    pub(crate) fn tier_up(
        &self,
        compiled: &Compiled,
        fidx: usize,
        args: &[Value],
    ) -> Option<Arc<JitFn>> {
        let mut st = self.fns[fidx].borrow_mut();
        let calls = match &*st {
            FnState::Ready(code) => return Some(code.clone()),
            FnState::Reject => return None,
            FnState::Cold(n) => n + 1,
        };
        if calls < self.cfg.hotness_threshold.max(1) {
            *st = FnState::Cold(calls);
            return None;
        }
        let spec: Vec<ParamSpec> = args
            .iter()
            .map(|v| match v {
                Value::Num(_) => ParamSpec::Num,
                Value::FloatArray(_) => ParamSpec::FArr,
                _ => ParamSpec::Any,
            })
            .collect();
        let seeds = &self.seeds;
        let outcome =
            translate::translate(compiled, fidx, &spec, &seeds.proven[fidx], &seeds.farr_fns)
                .map(Arc::new);
        if let Some(shared) = &self.shared {
            shared.publish(fidx, outcome.clone());
        }
        match outcome {
            Some(code) => {
                self.stats.compiled.set(self.stats.compiled.get() + 1);
                *st = FnState::Ready(code.clone());
                Some(code)
            }
            None => {
                *st = FnState::Reject;
                None
            }
        }
    }

    pub(crate) fn note_jit_call(&self) {
        self.stats.jit_calls.set(self.stats.jit_calls.get() + 1);
    }

    pub(crate) fn note_deopt(&self) {
        self.stats.deopts.set(self.stats.deopts.get() + 1);
    }
}

/// Eagerly compiles every function and renders the register IR listing —
/// the `rsc --ir` view. Parameters speculate all-numeric arguments (the
/// common hot shape) and fall back to unguarded compilation when that
/// shape doesn't translate; functions the translator rejects under both
/// specs render as `jit <name>: not compiled`.
pub fn render_ir(compiled: &Compiled, facts: Option<&TypeFacts>) -> String {
    let Seeds { proven, farr_fns } = Seeds::compute(compiled, facts);
    let mut out = String::new();
    for (fidx, func) in compiled.funcs.iter().enumerate() {
        let num_spec = vec![ParamSpec::Num; func.arity as usize];
        let any_spec = vec![ParamSpec::Any; func.arity as usize];
        let code = translate::translate(compiled, fidx, &num_spec, &proven[fidx], &farr_fns)
            .or_else(|| translate::translate(compiled, fidx, &any_spec, &proven[fidx], &farr_fns));
        match code {
            Some(code) => out.push_str(&render_jit_fn(func, &code)),
            None => {
                out.push_str(&format!("jit {}: not compiled\n", func.name));
            }
        }
        if fidx + 1 < compiled.funcs.len() {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins;

    /// The translator's builtin return-type table must agree with the
    /// real builtin implementations; a drift here would let a checked
    /// unbox fail at runtime.
    #[test]
    fn builtin_return_type_table_is_sound() {
        use crate::value::Value;
        let num = Value::Num(2.0);
        let farr = Value::float_array(vec![1.0, 2.0]);
        for name in builtins::NAMES {
            let f = builtins::lookup(name).expect("all builtins resolvable");
            // Probe with representative well-typed arguments.
            let args: Vec<Value> = match name {
                "print" => vec![num.clone()],
                "len" | "sqrt" | "abs" | "floor" | "zeros" => vec![num.clone()],
                "min" | "max" | "fill" => vec![num.clone(), num.clone()],
                "push" => vec![farr.clone(), num.clone()],
                "vsum" => vec![farr.clone()],
                "vdot" => vec![farr.clone(), farr.clone()],
                "vscale" => vec![num.clone(), farr.clone()],
                "vaxpy" => vec![num.clone(), farr.clone(), farr.clone()],
                other => unreachable!("untested builtin {other}"),
            };
            // `len`/`zeros` on a Num probe: zeros(2) is fine; len(2) errors
            // — errors are fine (no value to mis-type), so skip those.
            let Ok(v) = f(&args) else { continue };
            let claimed = translate::builtin_ret_ty_name(name);
            let actual = match v {
                Value::Num(_) => "num",
                Value::FloatArray(_) => "farray",
                Value::Nil => "nil",
                _ => "any",
            };
            assert_eq!(claimed, actual, "builtin `{name}` return-type drift");
        }
    }

    #[test]
    fn tier_up_respects_hotness_threshold() {
        let program = crate::parser::parse("fn f(x) { return x + 1; } f(1) + f(2)").unwrap();
        let compiled = crate::bytecode::compile(&program).unwrap();
        let jit = Jit::new(
            &compiled,
            JitConfig {
                hotness_threshold: 3,
            },
            None,
        );
        // `main` is index `compiled.main`; find `f` as the other one.
        let fidx = (0..compiled.funcs.len())
            .find(|&i| compiled.funcs[i].name == "f")
            .unwrap();
        let args = [Value::Num(1.0)];
        assert!(jit.tier_up(&compiled, fidx, &args).is_none(), "call 1 cold");
        assert!(jit.tier_up(&compiled, fidx, &args).is_none(), "call 2 cold");
        assert!(jit.tier_up(&compiled, fidx, &args).is_some(), "call 3 hot");
        assert_eq!(jit.stats().compiled(), 1);
        // Hot stays hot, and is not recompiled.
        assert!(jit.tier_up(&compiled, fidx, &args).is_some());
        assert_eq!(jit.stats().compiled(), 1);
    }

    #[test]
    fn shared_cache_carries_compilations_across_engines() {
        let program = crate::parser::parse("fn f(x) { return x * 2; } f(4)").unwrap();
        let compiled = crate::bytecode::compile(&program).unwrap();
        let cache = Arc::new(SharedJitCache::new());
        assert!(cache.is_empty());
        let jit1 = Jit::with_shared(&compiled, JitConfig::default(), None, cache.clone());
        let fidx = (0..compiled.funcs.len())
            .find(|&i| compiled.funcs[i].name == "f")
            .unwrap();
        let args = [Value::Num(4.0)];
        assert!(jit1.tier_up(&compiled, fidx, &args).is_some());
        assert_eq!(jit1.stats().compiled(), 1);
        assert!(!cache.is_empty(), "compilation published");
        // A fresh engine starts hot from the cache: code is returned on
        // the very first call without compiling anything.
        let jit2 = Jit::with_shared(
            &compiled,
            JitConfig {
                hotness_threshold: 1_000_000,
            },
            None,
            cache,
        );
        assert!(jit2.tier_up(&compiled, fidx, &args).is_some());
        assert_eq!(jit2.stats().compiled(), 0, "reused, not recompiled");
    }

    #[test]
    fn render_ir_lists_every_function() {
        let program =
            crate::parser::parse("fn dot(a, b) { return vdot(a, b); } dot(zeros(2), zeros(2))")
                .unwrap();
        let compiled = crate::bytecode::compile(&program).unwrap();
        let ir = render_ir(&compiled, None);
        assert!(ir.contains("jit dot"), "{ir}");
        assert!(ir.contains("jit <main>") || ir.contains("jit main"), "{ir}");
    }
}
