//! The lint gate: every ResearchScript program the repo ships — the
//! `examples/*.rsc` fixtures and the performance-study kernels — must come
//! through `rsc --check` diagnostic-free, and each warning code must fire
//! on its minimal trigger (the table in `crates/minilang/README.md`).

use rcr_core::perfgap;
use rcr_minilang::diagnostics::Code;
use rcr_minilang::lint;

#[test]
fn shipped_rsc_fixtures_lint_clean_and_run() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rsc") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable fixture");
        let diags = lint::lint_source(&src).expect("fixture parses");
        assert!(
            diags.is_empty(),
            "{} must lint clean: {diags:?}",
            path.display()
        );
        rcr_minilang::run_source_vm_optimized(&src)
            .unwrap_or_else(|e| panic!("{} must run: {e}", path.display()));
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected at least 3 .rsc fixtures, found {checked}"
    );
}

#[test]
fn perf_study_scripts_lint_clean() {
    let scripts = perfgap::study_scripts();
    assert!(scripts.len() >= 6);
    for (name, src) in scripts {
        let diags = lint::lint_source(&src).expect("study script parses");
        assert!(diags.is_empty(), "study kernel `{name}`: {diags:?}");
    }
}

#[test]
fn every_code_fires_on_its_minimal_trigger() {
    // The minimal triggering examples documented in the minilang README.
    let triggers: [(Code, &str); 13] = [
        (Code::UndefinedVariable, "let a = 1; a + typo"),
        (Code::UseBeforeAssignment, "acc = acc + 1; let acc = 0; acc"),
        (Code::Unused, "let x = 1; 2"),
        (Code::UnreachableCode, "fn f() { return 1; 2; } f()"),
        (Code::ConstantCondition, "while true { let a = 1; a; }"),
        (Code::ArityMismatch, "sqrt(1, 2)"),
        (Code::Shadowing, "let x = 1; { let x = 2; x; } x"),
        (Code::DivisionByZero, "let n = 1; let d = 0; n / d"),
        (Code::ProvableOutOfBounds, "let a = zeros(4); a[10]"),
        (Code::TypeConfusion, "let s = \"x\"; s * 2"),
        (Code::NumericDomain, "let n = 0 - 1; sqrt(n)"),
        (Code::NonTerminatingLoop, "let i = 0; while i < 10 { i; }"),
        (
            Code::JumpOutsideLoop,
            "fn f(x) { if x { break; } return x; } f(0)",
        ),
    ];
    for (code, src) in triggers {
        let diags = lint::lint_source(src).expect("trigger parses");
        assert!(
            diags.iter().any(|d| d.code == code),
            "{} must fire on `{src}`, got {diags:?}",
            code.id()
        );
    }
}
