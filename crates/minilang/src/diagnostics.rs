//! Diagnostic codes and records emitted by the static analyzer.
//!
//! Every finding carries a stable code (`W001`–`W013`), the 1-based source
//! line it anchors to, and a human message. [`Diagnostic`] displays as
//! `line N: warning[Wnnn]: message`; the `rsc --check` driver prefixes the
//! file name.

use std::fmt;

/// Stable warning codes, ordered by numeric id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Use of a name with no binding anywhere in the enclosing function.
    UndefinedVariable,
    /// Use of a name before any binding for it is in scope (a binding
    /// exists later or in a sibling scope — typically a dropped `let`).
    UseBeforeAssignment,
    /// A variable, parameter, or function that is never read or called.
    Unused,
    /// A statement that control flow can never reach (after `return`,
    /// `break`, or `continue`).
    UnreachableCode,
    /// A condition that always evaluates the same way, including
    /// `while true` with no `break` out.
    ConstantCondition,
    /// A call with the wrong number of arguments (user function or builtin).
    ArityMismatch,
    /// A binding that shadows an earlier visible binding of the same name.
    Shadowing,
    /// Division or modulo by a provably-zero denominator (proved by the
    /// interval lattice, not just a literal `0`).
    DivisionByZero,
    /// An index the abstract interpreter proves is outside the array's
    /// possible length interval on every execution.
    ProvableOutOfBounds,
    /// An operator or builtin applied to operands whose inferred type sets
    /// admit no valid combination (e.g. `"a" * 2`, `len(3)`).
    TypeConfusion,
    /// A numeric builtin whose argument interval is provably outside its
    /// domain (e.g. `sqrt` of a provably-negative value, `zeros` with a
    /// provably-negative length).
    NumericDomain,
    /// A loop whose condition the fixpoint proves always true while the
    /// body never breaks or returns: under the fuel model it can only end
    /// in fuel exhaustion.
    NonTerminatingLoop,
    /// A `break` or `continue` with no enclosing loop in its function (or
    /// at the top level): the bytecode compiler rejects the program.
    JumpOutsideLoop,
}

impl Code {
    /// The stable `Wnnn` identifier.
    pub fn id(self) -> &'static str {
        match self {
            Code::UndefinedVariable => "W001",
            Code::UseBeforeAssignment => "W002",
            Code::Unused => "W003",
            Code::UnreachableCode => "W004",
            Code::ConstantCondition => "W005",
            Code::ArityMismatch => "W006",
            Code::Shadowing => "W007",
            Code::DivisionByZero => "W008",
            Code::ProvableOutOfBounds => "W009",
            Code::TypeConfusion => "W010",
            Code::NumericDomain => "W011",
            Code::NonTerminatingLoop => "W012",
            Code::JumpOutsideLoop => "W013",
        }
    }

    /// Short kebab-case name, as used in tables and docs.
    pub fn name(self) -> &'static str {
        match self {
            Code::UndefinedVariable => "undefined-variable",
            Code::UseBeforeAssignment => "use-before-assignment",
            Code::Unused => "unused",
            Code::UnreachableCode => "unreachable-code",
            Code::ConstantCondition => "constant-condition",
            Code::ArityMismatch => "arity-mismatch",
            Code::Shadowing => "shadowing",
            Code::DivisionByZero => "division-by-zero",
            Code::ProvableOutOfBounds => "provable-out-of-bounds",
            Code::TypeConfusion => "type-confusion",
            Code::NumericDomain => "numeric-domain",
            Code::NonTerminatingLoop => "non-terminating-loop",
            Code::JumpOutsideLoop => "jump-outside-loop",
        }
    }

    /// All codes, in id order.
    pub const ALL: [Code; 13] = [
        Code::UndefinedVariable,
        Code::UseBeforeAssignment,
        Code::Unused,
        Code::UnreachableCode,
        Code::ConstantCondition,
        Code::ArityMismatch,
        Code::Shadowing,
        Code::DivisionByZero,
        Code::ProvableOutOfBounds,
        Code::TypeConfusion,
        Code::NumericDomain,
        Code::NonTerminatingLoop,
        Code::JumpOutsideLoop,
    ];
}

/// One finding from the analyzer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// 1-based source line the finding anchors to.
    pub line: u32,
    /// Warning code.
    pub code: Code,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(code: Code, line: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            line,
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: warning[{}]: {}",
            self.line,
            self.code.id(),
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_unique() {
        let ids: Vec<&str> = Code::ALL.iter().map(|c| c.id()).collect();
        assert_eq!(
            ids,
            vec![
                "W001", "W002", "W003", "W004", "W005", "W006", "W007", "W008", "W009", "W010",
                "W011", "W012", "W013"
            ]
        );
        let names: std::collections::BTreeSet<&str> = Code::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Code::ALL.len(), "names must be unique");
    }

    #[test]
    fn display_matches_check_output_format() {
        let d = Diagnostic::new(Code::UndefinedVariable, 7, "undefined variable `x`");
        assert_eq!(
            d.to_string(),
            "line 7: warning[W001]: undefined variable `x`"
        );
    }

    #[test]
    fn ordering_is_line_major() {
        let mut v = [
            Diagnostic::new(Code::Shadowing, 9, "b"),
            Diagnostic::new(Code::UndefinedVariable, 9, "a"),
            Diagnostic::new(Code::DivisionByZero, 2, "c"),
        ];
        v.sort();
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].code, Code::UndefinedVariable);
        assert_eq!(v[2].code, Code::Shadowing);
    }
}
