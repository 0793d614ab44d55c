//! E15 (Table 8): a seeded defect-injection study of what linting catches.
//!
//! The study generates a corpus of clean ResearchScript programs from
//! parameterized templates, injects one defect per mutant from five classes
//! observed in real research code — a typo'd identifier, a dropped (sunk)
//! initialization, a wrong-arity call, a dead branch behind an early
//! return, and a constant condition — and measures, per class, how often
//! the static analyzer flags the defect with the *expected* warning code.
//! The unmutated corpus doubles as the false-positive probe: every clean
//! script must lint silent and execute successfully.
//!
//! Everything derives from one seed: two runs with the same seed produce
//! byte-identical corpora and therefore identical rates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use rcr_minilang::absint::{self, Analysis};
use rcr_minilang::diagnostics::Code;
use rcr_minilang::vm::Vm;
use rcr_minilang::{bytecode, lint, optimize, parser};

use crate::{Error, Result};

/// The five injected defect classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectClass {
    /// An identifier use is misspelled — either to a fresh name (a lintable
    /// undefined variable) or, sometimes, to another in-scope name (type-
    /// correct confusion the linter cannot see).
    Typo,
    /// The initialization of an accumulator is sunk below its first use.
    DroppedInit,
    /// A call site passes the wrong number of arguments.
    WrongArity,
    /// An early `return`/`break` makes trailing statements unreachable.
    DeadBranch,
    /// A condition is rewritten to a constant (always-true/false guard, or
    /// `while true` with no exit).
    ConstantCondition,
}

impl DefectClass {
    /// All classes, in Table 8 row order.
    pub const ALL: [DefectClass; 5] = [
        DefectClass::Typo,
        DefectClass::DroppedInit,
        DefectClass::WrongArity,
        DefectClass::DeadBranch,
        DefectClass::ConstantCondition,
    ];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            DefectClass::Typo => "typo'd identifier",
            DefectClass::DroppedInit => "dropped initialization",
            DefectClass::WrongArity => "wrong arity",
            DefectClass::DeadBranch => "dead branch",
            DefectClass::ConstantCondition => "constant condition",
        }
    }

    /// The warning code that counts as detecting this class.
    pub fn expected(self) -> Code {
        match self {
            DefectClass::Typo => Code::UndefinedVariable,
            DefectClass::DroppedInit => Code::UseBeforeAssignment,
            DefectClass::WrongArity => Code::ArityMismatch,
            DefectClass::DeadBranch => Code::UnreachableCode,
            DefectClass::ConstantCondition => Code::ConstantCondition,
        }
    }
}

/// Per-class detection outcome (one Table 8 or Table 10 row).
#[derive(Debug, Clone, Serialize)]
pub struct ClassOutcome {
    /// Defect class label.
    pub class: String,
    /// Expected warning code id, e.g. `"W001"`.
    pub expected_code: String,
    /// Mutants generated.
    pub n: usize,
    /// Mutants where the expected code fired.
    pub detected: usize,
    /// `detected / n`.
    pub detection_rate: f64,
    /// Mean diagnostics per mutant (noise level of the report).
    pub mean_diagnostics: f64,
}

/// The result of [`run_protocol`]: the false-positive probe plus one row
/// per class (all of E15).
#[derive(Debug, Clone, Serialize)]
pub struct LintStudy {
    /// Clean scripts linted.
    pub n_clean: usize,
    /// Clean scripts with any finding (must be 0).
    pub clean_with_findings: usize,
    /// `clean_with_findings / n_clean`.
    pub false_positive_rate: f64,
    /// Per-class detection rows.
    pub classes: Vec<ClassOutcome>,
}

/// Generates corpus script `index` from `seed`, optionally with one
/// injected defect. `None` yields the clean form of the same script.
pub fn generate_script(seed: u64, index: usize, defect: Option<DefectClass>) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 + index as u64));
    match index % 3 {
        0 => template_accumulator(&mut rng, index, defect),
        1 => template_iteration(&mut rng, index, defect),
        _ => template_array(&mut rng, index, defect),
    }
}

/// An accumulator function with a guard, called once from the top level.
fn template_accumulator(rng: &mut StdRng, index: usize, defect: Option<DefectClass>) -> String {
    let n = rng.gen_range(5..40);
    let t = rng.gen_range(10..200);
    let d = rng.gen_range(1..9);
    let (x, y) = (rng.gen_range(1..9), rng.gen_range(1..9));
    let confusable = rng.gen_range(0..3) == 0;

    let init = "  let total = 0;\n";
    let looped = format!("  for k in range(0, {n}) {{\n    total = total + a * k + b;\n  }}\n");
    let guard_cond = match defect {
        Some(DefectClass::ConstantCondition) => format!("{t} > {t}"),
        _ => format!("total > {t}"),
    };
    let guard = format!("  if {guard_cond} {{\n    total = total - {d};\n  }}\n");
    let early = if defect == Some(DefectClass::DeadBranch) {
        "  return total;\n"
    } else {
        ""
    };
    let ret = match defect {
        // The confusable typo lands on an in-scope parameter: runs, wrong
        // answer, invisible to the linter.
        Some(DefectClass::Typo) if confusable => "  return a;\n".to_owned(),
        Some(DefectClass::Typo) => "  return totl;\n".to_owned(),
        _ => "  return total;\n".to_owned(),
    };
    let body = if defect == Some(DefectClass::DroppedInit) {
        // The initialization sank below the loop that needs it.
        format!("{looped}{init}{early}{guard}{ret}")
    } else {
        format!("{init}{looped}{early}{guard}{ret}")
    };
    let call = if defect == Some(DefectClass::WrongArity) {
        format!("acc{index}({x})")
    } else {
        format!("acc{index}({x}, {y})")
    };
    format!("fn acc{index}(a, b) {{\n{body}}}\nlet r = {call};\nr")
}

/// A fixed-point style iteration: a helper applied in a counted while loop.
fn template_iteration(rng: &mut StdRng, index: usize, defect: Option<DefectClass>) -> String {
    let m = rng.gen_range(2..7);
    let c = rng.gen_range(1..20);
    let v0 = rng.gen_range(1..10);
    let iters = rng.gen_range(3..25);
    let confusable = rng.gen_range(0..3) == 0;

    let step_arg = match defect {
        Some(DefectClass::Typo) if confusable => "n",
        Some(DefectClass::Typo) => "w",
        _ => "v",
    };
    let call = if defect == Some(DefectClass::WrongArity) {
        format!("step{index}({step_arg}, 3)")
    } else {
        format!("step{index}({step_arg})")
    };
    let cond = if defect == Some(DefectClass::ConstantCondition) {
        "true".to_owned()
    } else {
        format!("n < {iters}")
    };
    let dead = if defect == Some(DefectClass::DeadBranch) {
        "  break;\n"
    } else {
        ""
    };
    let body = format!("{dead}  v = {call};\n  n = n + 1;\n");
    let decl_n = "let n = 0;\n";
    let (before, after) = if defect == Some(DefectClass::DroppedInit) {
        ("", decl_n)
    } else {
        (decl_n, "")
    };
    format!(
        "fn step{index}(x) {{\n  return x * {m} + {c};\n}}\nlet v = {v0};\n{before}while {cond} {{\n{body}}}\n{after}v + n"
    )
}

/// An array pipeline over the vector builtins.
fn template_array(rng: &mut StdRng, index: usize, defect: Option<DefectClass>) -> String {
    let len = rng.gen_range(4..32);
    let m = rng.gen_range(2..9);
    let confusable = rng.gen_range(0..3) == 0;
    let _ = index;

    let fill = match defect {
        Some(DefectClass::ConstantCondition) => {
            format!("  if {m} == {m} {{\n    xs[k] = k * {m};\n  }}\n")
        }
        Some(DefectClass::DeadBranch) => {
            format!("  continue;\n  xs[k] = k * {m};\n")
        }
        _ => format!("  xs[k] = k * {m};\n"),
    };
    let decl_xs = format!("let xs = zeros({len});\n");
    let (before, after) = if defect == Some(DefectClass::DroppedInit) {
        (String::new(), decl_xs)
    } else {
        (decl_xs, String::new())
    };
    let sum_arg = match defect {
        Some(DefectClass::Typo) if !confusable => "xss",
        _ => "xs",
    };
    let sum = if defect == Some(DefectClass::WrongArity) {
        format!("let s = vsum({sum_arg}, 1);\n")
    } else {
        format!("let s = vsum({sum_arg});\n")
    };
    let avg = match defect {
        // Confusable typo: `len(s)` is in scope and well-formed statically,
        // it just computes the wrong thing (and fails at runtime).
        Some(DefectClass::Typo) if confusable => "let avg = s / len(s);\n",
        _ => "let avg = s / len(xs);\n",
    };
    format!("{before}for k in range(0, {len}) {{\n{fill}}}\n{after}{sum}{avg}avg")
}

/// A study's defect-class enum, as [`run_protocol`] reads it.
pub trait Defect: Copy {
    /// Row label.
    fn name(self) -> &'static str;
    /// The warning code that counts as detecting this class.
    fn expected(self) -> Code;
}

impl Defect for DefectClass {
    fn name(self) -> &'static str {
        DefectClass::name(self)
    }
    fn expected(self) -> Code {
        DefectClass::expected(self)
    }
}

/// Runs the full study: [`run_protocol`] over this module's corpus and
/// defect classes.
///
/// # Errors
/// What [`run_protocol`] returns.
pub fn run_study(seed: u64, n_per_class: usize) -> Result<LintStudy> {
    run_protocol(
        &DefectClass::ALL,
        n_per_class,
        |i, defect| generate_script(seed, i, defect),
        |_| {},
    )
}

/// The defect-injection protocol E15 and E20 share. Each clean script
/// `generate(i, None)`, `i < n_per_class`, is parsed and analyzed once,
/// linted with that analysis (any finding counts as a false positive),
/// handed to `on_clean`, and executed. Then `n_per_class` mutants of each
/// class are linted and scored against the class's expected code.
///
/// # Errors
/// [`Error::Script`] when a clean script fails to parse or to run, or a
/// mutant fails to parse — any of which would invalidate the rates.
pub fn run_protocol<C: Defect>(
    classes: &[C],
    n_per_class: usize,
    generate: impl Fn(usize, Option<C>) -> String,
    mut on_clean: impl FnMut(&Analysis),
) -> Result<LintStudy> {
    let mut clean_with_findings = 0usize;
    for i in 0..n_per_class {
        let program = parser::parse(&generate(i, None))
            .map_err(|e| Error::Script(format!("clean script {i} failed to parse: {e}")))?;
        let analysis = absint::analyze(&program);
        if !lint::lint_with_analysis(&program, &analysis).is_empty() {
            clean_with_findings += 1;
        }
        on_clean(&analysis);
        bytecode::compile(&optimize::optimize(&program))
            .and_then(|code| Vm::new().run(&code))
            .map_err(|e| Error::Script(format!("clean script {i} failed to run: {e}")))?;
    }

    let per = |count: usize| count as f64 / n_per_class.max(1) as f64;
    let mut outcomes = Vec::new();
    for &class in classes {
        let mut detected = 0usize;
        let mut total_diags = 0usize;
        for i in 0..n_per_class {
            let diags = lint::lint_source(&generate(i, Some(class))).map_err(|e| {
                Error::Script(format!(
                    "mutant {i} ({}) failed to parse: {e}",
                    class.name()
                ))
            })?;
            total_diags += diags.len();
            if diags.iter().any(|d| d.code == class.expected()) {
                detected += 1;
            }
        }
        outcomes.push(ClassOutcome {
            class: class.name().to_owned(),
            expected_code: class.expected().id().to_owned(),
            n: n_per_class,
            detected,
            detection_rate: per(detected),
            mean_diagnostics: per(total_diags),
        });
    }

    Ok(LintStudy {
        n_clean: n_per_class,
        clean_with_findings,
        false_positive_rate: per(clean_with_findings),
        classes: outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MASTER_SEED;

    #[test]
    fn clean_corpus_is_silent_and_runs() {
        let study = run_study(MASTER_SEED, 12).unwrap();
        assert_eq!(study.clean_with_findings, 0, "lint false positive");
        assert_eq!(study.false_positive_rate, 0.0);
    }

    #[test]
    fn structural_classes_are_fully_detected() {
        let study = run_study(MASTER_SEED, 12).unwrap();
        let rate = |name: &str| {
            study
                .classes
                .iter()
                .find(|c| c.class == name)
                .expect("class row")
                .detection_rate
        };
        // Structural defects are exactly what the analyses compute.
        assert_eq!(rate("dropped initialization"), 1.0);
        assert_eq!(rate("wrong arity"), 1.0);
        assert_eq!(rate("dead branch"), 1.0);
        assert_eq!(rate("constant condition"), 1.0);
        // Typos split: fresh misspellings are caught, confusions with
        // another in-scope name are invisible to any lexical analysis.
        let typo = rate("typo'd identifier");
        assert!(typo > 0.5 && typo < 1.0, "typo rate {typo}");
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_study(MASTER_SEED, 8).unwrap();
        let b = run_study(MASTER_SEED, 8).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn protocol_names_the_mutant_that_fails_to_parse() {
        let err = run_protocol(
            &DefectClass::ALL,
            3,
            |i, defect| match defect {
                Some(DefectClass::WrongArity) if i == 2 => "let = ;".to_owned(),
                _ => generate_script(MASTER_SEED, i, defect),
            },
            |_| {},
        )
        .unwrap_err();
        match err {
            Error::Script(msg) => assert!(
                msg.starts_with("mutant 2 (wrong arity) failed to parse"),
                "{msg}"
            ),
            other => panic!("expected Error::Script, got {other:?}"),
        }
    }

    #[test]
    fn protocol_counts_clean_scripts_with_findings() {
        // Dead-branch mutants run to completion but carry W004, so as the
        // "clean" corpus every one of them is a false positive.
        let mut analyzed = 0;
        let study = run_protocol(
            &DefectClass::ALL,
            6,
            |i, defect| generate_script(MASTER_SEED, i, defect.or(Some(DefectClass::DeadBranch))),
            |_| analyzed += 1,
        )
        .unwrap();
        assert_eq!(analyzed, 6);
        assert_eq!(study.n_clean, 6);
        assert_eq!(study.clean_with_findings, 6);
        assert_eq!(study.false_positive_rate, 1.0);
    }

    #[test]
    fn mutants_differ_from_their_clean_form() {
        for class in DefectClass::ALL {
            for i in 0..6 {
                let clean = generate_script(MASTER_SEED, i, None);
                let mutant = generate_script(MASTER_SEED, i, Some(class));
                assert_ne!(clean, mutant, "{:?} mutant {i} identical to clean", class);
            }
        }
    }
}
