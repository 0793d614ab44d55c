//! The two stages a distinct program goes through in the service, plus the
//! content hash that keys the program cache.
//!
//! * [`FrontEnd`]: parse, constant folding and abstract interpretation. It
//!   holds the optimized AST, the type facts and the static fuel lower
//!   bound. Static admission runs it once per content hash and reads the
//!   bound; the cache keeps it for the compile.
//! * [`ProgramArtifact`]: bytecode compilation and peephole fusion of a
//!   front end, run on an executor. [`rcr_minilang::bytecode::Compiled`]
//!   itself is not shareable across threads (its constant pool holds
//!   [`Value`]s, which are `Rc`-based), so the cache stores this flattened
//!   artifact instead and each execution [`ProgramArtifact::instantiate`]s
//!   a private `Compiled`. Instantiation is a shallow O(program-size)
//!   rebuild.
//!
//! An artifact also decides which tier each of its runs gets
//! ([`ProgramArtifact::start_run`]): a program too short to repay its JIT
//! translation runs its first execution on the fused VM alone.
//!
//! [`static_fuel_lower_bound`] and [`ProgramArtifact::compile`] run the same
//! [`FrontEnd::analyze`] the cache does, so admission, compilation and the
//! standalone entry points cannot disagree about a program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rcr_minilang::absint::TypeFacts;
use rcr_minilang::ast::Program;
use rcr_minilang::bytecode::{Compiled, CompiledFn};
use rcr_minilang::jit::SharedJitCache;
use rcr_minilang::{absint, bytecode, optimize, parser, peephole, Error, Value};

/// A scalar or string constant — the only value kinds a compiled constant
/// pool can contain (array literals compile to construction opcodes).
#[derive(Debug, Clone, PartialEq)]
enum Const {
    Nil,
    Bool(bool),
    Num(f64),
    Str(String),
}

impl Const {
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Nil => Const::Nil,
            Value::Bool(b) => Const::Bool(*b),
            Value::Num(n) => Const::Num(*n),
            Value::Str(s) => Const::Str(s.to_string()),
            // The compiler only interns literals; aggregate values cannot
            // appear in a constant pool.
            Value::Array(_) | Value::FloatArray(_) => {
                unreachable!("aggregate value in constant pool")
            }
        }
    }

    fn to_value(&self) -> Value {
        match self {
            Const::Nil => Value::Nil,
            Const::Bool(b) => Value::Bool(*b),
            Const::Num(n) => Value::Num(*n),
            Const::Str(s) => Value::str(s),
        }
    }
}

#[derive(Debug, Clone)]
struct ArtifactFn {
    name: String,
    arity: u8,
    n_slots: u16,
    code: Vec<bytecode::Op>,
    lines: Vec<u32>,
    consts: Vec<Const>,
}

/// A program's front end: the optimized AST plus what the abstract
/// interpreter proved about it. `Send + Sync`, so the program cache can
/// hold it from admission until an executor compiles it.
#[derive(Debug)]
pub struct FrontEnd {
    ast: Program,
    facts: TypeFacts,
    fuel_lo: u64,
}

impl FrontEnd {
    /// Parses and constant-folds `source`, then runs the abstract
    /// interpreter on the optimized AST the compiler will consume.
    ///
    /// # Errors
    /// Any lex or parse [`Error`]; deterministic, so callers may cache it.
    pub fn analyze(source: &str) -> Result<FrontEnd, Error> {
        let ast = optimize::optimize(&parser::parse(source)?);
        let analysis = absint::analyze(&ast);
        Ok(FrontEnd {
            ast,
            facts: analysis.facts,
            fuel_lo: analysis.cost.program.lo,
        })
    }

    /// The abstract interpreter's fuel lower bound for one run of the
    /// program; `u64::MAX` marks a provably non-terminating program.
    pub fn fuel_lower_bound(&self) -> u64 {
        self.fuel_lo
    }
}

/// Static fuel per fused op at or above which a program's *first* run is
/// given a JIT engine; below it the first run goes to the fused VM alone
/// and no code is translated for it. Every later run uses the JIT.
///
/// Measured on a 2-vCPU Xeon host: building an engine and translating
/// what a run calls costs 0.14–0.27 µs per fused op (43–55 µs for a
/// 180-op generated script that the fused VM runs in 6–9 µs), and the warm
/// JIT saves 2.3–6.7 ns per unit of fuel over the fused VM (4.3–10.0 vs
/// 1.7–3.3 ns/fuel on E19's scripts and the `serve_hot` kernels). A
/// program that runs exactly once therefore repays its translation only
/// above some 20–120 fuel per op; one that runs again pays the
/// translation anyway, so for it the JIT's first run is pure gain. The
/// static lower bound per op (fuel lower bound ÷
/// [`ProgramArtifact::code_len`]) splits into two groups with a wide gap:
/// generated one-shot research scripts read at most 3.5, while compute
/// kernels read 21.1 (a 24×24 matmul) to 2 667 (E19's scripts: 235–2 667).
/// 16 sits in that gap, below break-even, so a kernel is not sent to the
/// VM merely for lack of a repeat. A loop bounded by a parameter reads
/// near 0 (Monte-Carlo π: 0.1): its first run is on the VM and its
/// second on the JIT.
pub const JIT_MIN_FUEL_PER_OP: u64 = 16;

/// A thread-shareable compiled program (optimized AST → bytecode → fused
/// superinstructions), ready to instantiate per execution.
#[derive(Debug)]
pub struct ProgramArtifact {
    funcs: Vec<ArtifactFn>,
    main: usize,
    /// The abstract-interpretation type facts the front end computed —
    /// the JIT engine seeds its register types from the same facts that
    /// drove the peephole pass, so all analyses agree per artifact.
    facts: TypeFacts,
    /// Compiled-code cache shared by every execution of this program on
    /// every worker: heat accumulated by one request benefits the next,
    /// and a function is translated at most once per artifact.
    jit_cache: Arc<SharedJitCache>,
    /// Whether the first run gets a JIT engine ([`JIT_MIN_FUEL_PER_OP`]).
    jit_on_first_run: bool,
    /// Set by the first [`ProgramArtifact::start_run`]; of two racing
    /// executors, exactly one takes the first run.
    started: AtomicBool,
}

impl ProgramArtifact {
    /// Runs the full pipeline on `source`: [`FrontEnd::analyze`], then
    /// [`ProgramArtifact::from_front_end`].
    ///
    /// # Errors
    /// Any lex, parse, or compile [`Error`]; these are deterministic
    /// properties of the source text, so callers may cache them.
    pub fn compile(source: &str) -> Result<ProgramArtifact, Error> {
        Self::from_front_end(FrontEnd::analyze(source)?)
    }

    /// Compiles an analyzed program to bytecode and fuses it. The type
    /// facts widen the float-array proof (function returns count as
    /// producers), so strictly more indexing sites fuse than the syntactic
    /// scan alone would prove. The AST is dropped here.
    ///
    /// # Errors
    /// Any compile [`Error`] (e.g. a duplicate function definition).
    pub fn from_front_end(front: FrontEnd) -> Result<ProgramArtifact, Error> {
        let compiled = bytecode::compile(&front.ast)?;
        let fused = peephole::optimize_with_facts(
            &compiled,
            peephole::Options::default(),
            Some(&front.facts),
        );
        let code_len: usize = fused.funcs.iter().map(|f| f.code.len()).sum();
        Ok(ProgramArtifact {
            funcs: fused
                .funcs
                .iter()
                .map(|f| ArtifactFn {
                    name: f.name.clone(),
                    arity: f.arity,
                    n_slots: f.n_slots,
                    code: f.code.clone(),
                    lines: f.lines.clone(),
                    consts: f.consts.iter().map(Const::from_value).collect(),
                })
                .collect(),
            main: fused.main,
            facts: front.facts,
            jit_cache: Arc::new(SharedJitCache::new()),
            jit_on_first_run: front.fuel_lo >= JIT_MIN_FUEL_PER_OP.saturating_mul(code_len as u64),
            started: AtomicBool::new(false),
        })
    }

    /// The type facts computed for this program (for building JIT engines
    /// that agree with the peephole pass).
    pub fn facts(&self) -> &TypeFacts {
        &self.facts
    }

    /// The program's shared JIT cache (content-addressed like the artifact
    /// itself: one per distinct source in the program cache).
    pub fn jit_cache(&self) -> &Arc<SharedJitCache> {
        &self.jit_cache
    }

    /// Registers one run of this program and returns whether it gets a JIT
    /// engine: every run does except the first run of a program whose
    /// static fuel lower bound is below [`JIT_MIN_FUEL_PER_OP`] per fused
    /// op. The JIT is bit-identical to the fused VM in values, errors, fuel
    /// and memory, so the choice cannot change an outcome.
    pub fn start_run(&self) -> bool {
        self.jit_on_first_run || self.started.swap(true, Ordering::Relaxed)
    }

    /// Rebuilds a private [`Compiled`] for one execution (cheap: clones
    /// code and re-interns constants, no parsing or compilation).
    pub fn instantiate(&self) -> Compiled {
        Compiled {
            funcs: self
                .funcs
                .iter()
                .map(|f| CompiledFn {
                    name: f.name.clone(),
                    arity: f.arity,
                    n_slots: f.n_slots,
                    code: f.code.clone(),
                    lines: f.lines.clone(),
                    consts: f.consts.iter().map(Const::to_value).collect(),
                })
                .collect(),
            main: self.main,
        }
    }

    /// Total opcode count, a rough size measure for diagnostics.
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

// Compile-time proof that front ends and artifacts are shareable across
// service threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FrontEnd>();
    assert_send_sync::<ProgramArtifact>();
};

/// Static fuel lower bound of `source`: [`FrontEnd::fuel_lower_bound`] of
/// [`FrontEnd::analyze`], the same front end static admission caches.
/// `None` when the source does not parse — admission then passes the job
/// through so the compile stage reports the error with its usual typed
/// outcome. A result of `u64::MAX` marks a provably non-terminating
/// program.
pub fn static_fuel_lower_bound(source: &str) -> Option<u64> {
    FrontEnd::analyze(source).ok().map(|f| f.fuel_lower_bound())
}

/// FNV-1a 64-bit content hash of a source text — the program-cache key.
/// Stable across runs and platforms (pure function of the bytes).
pub fn content_hash(source: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in source.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcr_minilang::vm::Vm;

    #[test]
    fn artifact_round_trips_through_instantiate() {
        let src = r#"
            fn sq(x) { return x * x; }
            let s = "a" + "b";
            let a = [1, 2, 3];
            sq(len(a)) + len(s)
        "#;
        let artifact = ProgramArtifact::compile(src).expect("compiles");
        assert!(artifact.code_len() > 0);
        // Two independent instantiations run independently and agree with
        // the reference pipeline.
        let expect = rcr_minilang::run_source_vm_fused(src).unwrap();
        for _ in 0..2 {
            let compiled = artifact.instantiate();
            let got = Vm::new().run(&compiled).unwrap();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn only_provably_short_programs_skip_the_jit_on_their_first_run() {
        // Copies of E19's scripts (235–2 667 fuel per op) are long.
        for long in [
            "let s = 0; for i in range(0, 4000) { s = s + i * i; } s",
            "let s = 0; for i in range(0, 20000) { s = s + i * 3; } s",
            "let a = zeros(2000); for i in range(0, 2000) { a[i] = i * 0.5; } vsum(a)",
        ] {
            let artifact = ProgramArtifact::compile(long).unwrap();
            assert!(artifact.start_run(), "{long}: first run");
            assert!(artifact.start_run(), "{long}: second run");
        }
        // A 20-iteration template (about 3 fuel per op) is short: its first
        // run alone goes to the fused VM.
        let short = "let s = 0; for i in range(0, 20) { s = s + i * i; } s";
        let artifact = ProgramArtifact::compile(short).unwrap();
        assert!(!artifact.start_run(), "first run");
        assert!(artifact.start_run(), "second run");
        assert!(artifact.start_run(), "third run");
    }

    #[test]
    fn compile_errors_surface() {
        assert!(ProgramArtifact::compile("let = ;").is_err());
        assert!(ProgramArtifact::compile("fn f() { } fn f() { }").is_err());
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let a = content_hash("let x = 1;");
        assert_eq!(a, content_hash("let x = 1;"));
        assert_ne!(a, content_hash("let x = 2;"));
        assert_ne!(content_hash(""), content_hash(" "));
        // Known FNV-1a vector: the empty string hashes to the offset basis.
        assert_eq!(content_hash(""), 0xCBF2_9CE4_8422_2325);
    }
}
