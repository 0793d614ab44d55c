//! Abstract syntax tree of ResearchScript.
//!
//! Every expression and statement carries the 1-based source line it
//! started on ([`Expr::line`] / [`Stmt::line`]), threaded through from
//! [`crate::lexer::Token::line`] by the parser. Runtime errors and the
//! static analyzer ([`crate::lint`]) anchor their messages on these spans.

use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numbers and strings)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
}

/// An expression: a shape ([`ExprKind`]) plus the source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// 1-based source line.
    pub line: u32,
}

impl Expr {
    /// Builds an expression at a source line.
    pub fn new(kind: ExprKind, line: u32) -> Self {
        Expr { kind, line }
    }
}

/// Expression shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `nil`.
    Nil,
    /// Variable reference.
    Var(String),
    /// Array literal.
    Array(Vec<Expr>),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Short-circuit `and`.
    And(Box<Expr>, Box<Expr>),
    /// Short-circuit `or`.
    Or(Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call: callee is a name (functions are first-order).
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Indexing `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
}

/// A block of statements.
pub type Block = Vec<Stmt>;

/// A statement: a shape ([`StmtKind`]) plus the source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// 1-based source line.
    pub line: u32,
}

impl Stmt {
    /// Builds a statement at a source line.
    pub fn new(kind: StmtKind, line: u32) -> Self {
        Stmt { kind, line }
    }
}

/// Statement shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `let name = expr;`
    Let {
        /// Variable name.
        name: String,
        /// Initializer.
        init: Expr,
    },
    /// `name = expr;`
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// `base[index] = expr;`
    IndexAssign {
        /// Indexed expression.
        base: Expr,
        /// Index expression.
        index: Expr,
        /// New value.
        value: Expr,
    },
    /// Expression statement; its value becomes the program result when it is
    /// the final statement.
    Expr(Expr),
    /// `if cond { ... } else { ... }`
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_block: Block,
        /// Else-branch (empty when absent).
        else_block: Block,
    },
    /// `while cond { ... }`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for var in range(start, end) { ... }` — the only iteration form;
    /// iterates integer values `start, start+1, ..., end-1`.
    ForRange {
        /// Loop variable (scoped to the body).
        var: String,
        /// Start expression (inclusive).
        start: Expr,
        /// End expression (exclusive).
        end: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return expr;` (or bare `return;`).
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block `{ ... }` introducing a scope.
    Block(Block),
}

/// A top-level function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body block.
    pub body: Block,
    /// Source line of the definition.
    pub line: u32,
}

/// A parsed program: top-level functions plus a main statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Function definitions (top-level only).
    pub functions: Vec<Arc<FnDef>>,
    /// Main statements, executed in order.
    pub main: Block,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_construct_and_compare() {
        let e = Expr::new(
            ExprKind::Bin {
                op: BinOp::Add,
                lhs: Box::new(Expr::new(ExprKind::Num(1.0), 1)),
                rhs: Box::new(Expr::new(ExprKind::Var("x".into()), 1)),
            },
            1,
        );
        assert_eq!(
            e,
            Expr::new(
                ExprKind::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::new(ExprKind::Num(1.0), 1)),
                    rhs: Box::new(Expr::new(ExprKind::Var("x".into()), 1)),
                },
                1,
            )
        );
        assert_eq!(e.line, 1);
        let p = Program::default();
        assert!(p.functions.is_empty());
        assert!(p.main.is_empty());
    }

    #[test]
    fn spans_distinguish_otherwise_equal_nodes() {
        let a = Expr::new(ExprKind::Num(1.0), 1);
        let b = Expr::new(ExprKind::Num(1.0), 2);
        assert_ne!(a, b, "lines are part of node identity");
        assert_eq!(a.kind, b.kind, "shapes still compare");
    }
}
