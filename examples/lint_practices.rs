//! Static analysis as a software-engineering practice: runs `rsc --check`'s
//! analyzer over a deliberately sloppy script corpus — one snippet per
//! warning code W001–W013 — then sets the result against the paper's E7
//! practice-adoption table (Table 4), where linting sits alongside testing
//! and code review among the practices research code mostly lacks.
//!
//! ```sh
//! cargo run --example lint_practices
//! ```

use rcr_core::experiments::Experiments;
use rcr_core::MASTER_SEED;
use rcr_minilang::diagnostics::Code;
use rcr_minilang::lint;
use rcr_report::{fmt, table::Table};

/// One sloppy script per warning code, each the smallest realistic program
/// that triggers it.
const SLOPPY: &[(&str, &str)] = &[
    ("typo.rsc", "let total = 0;\ntotal = total + 1;\ntotl"),
    ("sunk_init.rsc", "acc = acc + 5;\nlet acc = 0;\nacc"),
    ("dead_store.rsc", "let unused = 42;\nlet kept = 1;\nkept"),
    (
        "after_return.rsc",
        "fn f() {\n  return 1;\n  let leftover = 2;\n  leftover;\n}\nf()",
    ),
    ("always_true.rsc", "let x = 0;\nif 1 < 2 {\n  x = 1;\n}\nx"),
    ("bad_call.rsc", "let v = sqrt(4, 2);\nv"),
    ("shadow.rsc", "let x = 1;\n{\n  let x = 2;\n  x;\n}\nx"),
    ("div_zero.rsc", "let n = 10;\nn / (1 - 1)"),
    ("off_end.rsc", "let a = zeros(4);\na[10]"),
    ("str_math.rsc", "let s = \"x\";\ns * 2"),
    ("neg_sqrt.rsc", "let n = 0 - 1;\nsqrt(n)"),
    ("spin.rsc", "let i = 0;\nwhile i < 10 {\n  i;\n}\ni"),
    (
        "stray_break.rsc",
        "fn f(x) {\n  if x {\n    break;\n  }\n  return x;\n}\nf(0)",
    ),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Linting the sloppy corpus ==\n");
    let mut counts = vec![0usize; Code::ALL.len()];
    for (name, src) in SLOPPY {
        for d in lint::lint_source(src)? {
            println!("{name}:{}: warning[{}]: {}", d.line, d.code.id(), d.message);
            let idx = Code::ALL
                .iter()
                .position(|c| *c == d.code)
                .expect("known code");
            counts[idx] += 1;
        }
    }

    let mut summary = Table::new(["code", "name", "findings"])
        .title(format!("Lint summary over {} sloppy scripts", SLOPPY.len()));
    for (code, n) in Code::ALL.iter().zip(&counts) {
        summary.row([code.id().to_owned(), code.name().to_owned(), n.to_string()]);
    }
    println!("\n{}", summary.render_ascii());
    assert!(
        counts.iter().all(|&n| n > 0),
        "every warning code fires at least once on the corpus"
    );

    // The survey context: linting is one of the practices Table 4 tracks
    // adoption of. The corpus above is what its absence looks like.
    let ex = Experiments::new(MASTER_SEED);
    let shifts = ex.e7_practice_shift()?;
    let mut t = Table::new(["practice", "2011", "2024", "Δ (pp)", "p (BH)"])
        .title("Table 4: software-engineering practices, 2011 vs 2024".to_owned());
    for s in &shifts {
        t.row([
            s.item.clone(),
            fmt::pct(s.p_before),
            fmt::pct(s.p_after),
            format!("{:+.1}", (s.p_after - s.p_before) * 100.0),
            fmt::p_value(s.p_adj),
        ]);
    }
    println!("{}", t.render_ascii());
    Ok(())
}
