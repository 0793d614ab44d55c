//! Recursive-descent parser: token stream → [`Program`].
//!
//! Precedence (loosest to tightest): `or` < `and` < equality < comparison
//! < additive < multiplicative < unary < postfix (call/index) < primary.
//!
//! Every node is stamped with the source line of its first token, so both
//! runtime errors and [`crate::lint`] diagnostics can point back at code.

use std::sync::Arc;

use crate::ast::{BinOp, Block, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};
use crate::error::{Error, Result};
use crate::lexer::{lex, Tok, Token};

/// Parses a complete source string into a [`Program`].
///
/// # Errors
/// Lexer errors and [`Error::Parse`] diagnostics with line numbers.
pub fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Consumes the current token and moves it out (no token is read
    /// again once consumed; the final `Eof` is never passed).
    fn advance(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.tokens[self.pos].tok, Tok::Eof);
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Consumes the current token, which the caller has peeked as an
    /// identifier or string literal, and returns its text.
    fn advance_text(&mut self) -> String {
        match self.advance() {
            Tok::Ident(s) | Tok::Str(s) => s,
            other => unreachable!("advance_text on {other:?}"),
        }
    }

    fn eat(&mut self, want: &Tok, what: &str) -> Result<()> {
        if self.peek() == want {
            self.advance();
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected {what}, found {:?}", self.peek()),
                self.line(),
            ))
        }
    }

    fn eat_ident(&mut self, what: &str) -> Result<String> {
        if matches!(self.peek(), Tok::Ident(_)) {
            Ok(self.advance_text())
        } else {
            Err(Error::parse(
                format!("expected {what}, found {:?}", self.peek()),
                self.line(),
            ))
        }
    }

    fn program(&mut self) -> Result<Program> {
        let mut prog = Program::default();
        while self.peek() != &Tok::Eof {
            if self.peek() == &Tok::Fn {
                prog.functions.push(Arc::new(self.fn_def()?));
            } else {
                let s = self.stmt(false)?;
                prog.main.push(s);
            }
        }
        Ok(prog)
    }

    fn fn_def(&mut self) -> Result<FnDef> {
        let line = self.line();
        self.eat(&Tok::Fn, "`fn`")?;
        let name = self.eat_ident("function name")?;
        self.eat(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                params.push(self.eat_ident("parameter name")?);
                if self.peek() == &Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen, "`)`")?;
        if params
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            != params.len()
        {
            return Err(Error::parse(
                format!("function `{name}` repeats a parameter name"),
                line,
            ));
        }
        let body = self.block(true)?;
        Ok(FnDef {
            name,
            params,
            body,
            line,
        })
    }

    /// Parses `{ stmt* }`. `in_fn` controls whether `return` is legal.
    fn block(&mut self, in_fn: bool) -> Result<Block> {
        self.eat(&Tok::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(Error::parse(
                    "unexpected end of input in block",
                    self.line(),
                ));
            }
            stmts.push(self.stmt(in_fn)?);
        }
        self.eat(&Tok::RBrace, "`}`")?;
        Ok(stmts)
    }

    /// Consumes a statement terminator: `;`, or nothing when the next token
    /// closes a block / ends the input (permits `x` as a final expression).
    fn terminator(&mut self) -> Result<()> {
        match self.peek() {
            Tok::Semi => {
                self.advance();
                Ok(())
            }
            Tok::RBrace | Tok::Eof => Ok(()),
            other => Err(Error::parse(
                format!("expected `;`, found {other:?}"),
                self.line(),
            )),
        }
    }

    fn stmt(&mut self, in_fn: bool) -> Result<Stmt> {
        let line = self.line();
        match self.peek() {
            Tok::Fn => Err(Error::parse(
                "functions may only be declared at the top level",
                line,
            )),
            Tok::Let => {
                self.advance();
                let name = self.eat_ident("variable name")?;
                self.eat(&Tok::Assign, "`=`")?;
                let init = self.expr()?;
                self.terminator()?;
                Ok(Stmt::new(StmtKind::Let { name, init }, line))
            }
            Tok::If => self.if_stmt(in_fn),
            Tok::While => {
                self.advance();
                let cond = self.expr()?;
                let body = self.block(in_fn)?;
                Ok(Stmt::new(StmtKind::While { cond, body }, line))
            }
            Tok::For => {
                self.advance();
                let var = self.eat_ident("loop variable")?;
                self.eat(&Tok::In, "`in`")?;
                let iter_line = self.line();
                let iter = self.expr()?;
                let (start, end) = match iter.kind {
                    ExprKind::Call { name, mut args } if name == "range" && args.len() == 2 => {
                        let end = args.pop().expect("len checked");
                        let start = args.pop().expect("len checked");
                        (start, end)
                    }
                    _ => {
                        return Err(Error::parse(
                            "`for` requires `range(start, end)` as its iterator",
                            iter_line,
                        ))
                    }
                };
                let body = self.block(in_fn)?;
                Ok(Stmt::new(
                    StmtKind::ForRange {
                        var,
                        start,
                        end,
                        body,
                    },
                    line,
                ))
            }
            Tok::Return => {
                if !in_fn {
                    return Err(Error::parse("`return` outside a function", line));
                }
                self.advance();
                let value = if matches!(self.peek(), Tok::Semi | Tok::RBrace | Tok::Eof) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.terminator()?;
                Ok(Stmt::new(StmtKind::Return(value), line))
            }
            Tok::Break => {
                self.advance();
                self.terminator()?;
                Ok(Stmt::new(StmtKind::Break, line))
            }
            Tok::Continue => {
                self.advance();
                self.terminator()?;
                Ok(Stmt::new(StmtKind::Continue, line))
            }
            Tok::LBrace => Ok(Stmt::new(StmtKind::Block(self.block(in_fn)?), line)),
            _ => {
                // Expression, assignment, or index assignment.
                let e = self.expr()?;
                if self.peek() == &Tok::Assign {
                    let eq_line = self.line();
                    self.advance();
                    let value = self.expr()?;
                    self.terminator()?;
                    match e.kind {
                        ExprKind::Var(name) => {
                            Ok(Stmt::new(StmtKind::Assign { name, value }, line))
                        }
                        ExprKind::Index { base, index } => Ok(Stmt::new(
                            StmtKind::IndexAssign {
                                base: *base,
                                index: *index,
                                value,
                            },
                            line,
                        )),
                        _ => Err(Error::parse("invalid assignment target", eq_line)),
                    }
                } else {
                    self.terminator()?;
                    Ok(Stmt::new(StmtKind::Expr(e), line))
                }
            }
        }
    }

    fn if_stmt(&mut self, in_fn: bool) -> Result<Stmt> {
        let line = self.line();
        self.eat(&Tok::If, "`if`")?;
        let cond = self.expr()?;
        let then_block = self.block(in_fn)?;
        let else_block = if self.peek() == &Tok::Else {
            self.advance();
            if self.peek() == &Tok::If {
                // `else if` chains desugar to a nested if in a one-statement
                // else block.
                vec![self.if_stmt(in_fn)?]
            } else {
                self.block(in_fn)?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_block,
                else_block,
            },
            line,
        ))
    }

    // ---- expressions ----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &Tok::Or {
            let line = self.line();
            self.advance();
            let rhs = self.and_expr()?;
            lhs = Expr::new(ExprKind::Or(Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.equality()?;
        while self.peek() == &Tok::And {
            let line = self.line();
            self.advance();
            let rhs = self.equality()?;
            lhs = Expr::new(ExprKind::And(Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr> {
        let mut lhs = self.comparison()?;
        loop {
            let op = match self.peek() {
                Tok::Eq => BinOp::Eq,
                Tok::Ne => BinOp::Ne,
                _ => break,
            };
            let line = self.line();
            self.advance();
            let rhs = self.comparison()?;
            lhs = Expr::new(
                ExprKind::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Expr> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            let line = self.line();
            self.advance();
            let rhs = self.additive()?;
            lhs = Expr::new(
                ExprKind::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            let line = self.line();
            self.advance();
            let rhs = self.multiplicative()?;
            lhs = Expr::new(
                ExprKind::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            let line = self.line();
            self.advance();
            let rhs = self.unary()?;
            lhs = Expr::new(
                ExprKind::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.peek() {
            Tok::Minus => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr::new(
                    ExprKind::Un {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                    },
                    line,
                ))
            }
            Tok::Not => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr::new(
                    ExprKind::Un {
                        op: UnOp::Not,
                        expr: Box::new(e),
                    },
                    line,
                ))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        while self.peek() == &Tok::LBracket {
            let line = self.line();
            self.advance();
            let index = self.expr()?;
            self.eat(&Tok::RBracket, "`]`")?;
            e = Expr::new(
                ExprKind::Index {
                    base: Box::new(e),
                    index: Box::new(index),
                },
                line,
            );
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.peek() {
            Tok::Num(n) => {
                let n = *n;
                self.advance();
                Ok(Expr::new(ExprKind::Num(n), line))
            }
            Tok::Str(_) => Ok(Expr::new(ExprKind::Str(self.advance_text()), line)),
            Tok::True => {
                self.advance();
                Ok(Expr::new(ExprKind::Bool(true), line))
            }
            Tok::False => {
                self.advance();
                Ok(Expr::new(ExprKind::Bool(false), line))
            }
            Tok::Nil => {
                self.advance();
                Ok(Expr::new(ExprKind::Nil, line))
            }
            Tok::LParen => {
                self.advance();
                let e = self.expr()?;
                self.eat(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::LBracket => {
                self.advance();
                let mut elems = Vec::new();
                if self.peek() != &Tok::RBracket {
                    loop {
                        elems.push(self.expr()?);
                        if self.peek() == &Tok::Comma {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.eat(&Tok::RBracket, "`]`")?;
                Ok(Expr::new(ExprKind::Array(elems), line))
            }
            Tok::Ident(_) => {
                let name = self.advance_text();
                if self.peek() == &Tok::LParen {
                    self.advance();
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == &Tok::Comma {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen, "`)`")?;
                    Ok(Expr::new(ExprKind::Call { name, args }, line))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), line))
                }
            }
            other => Err(Error::parse(format!("unexpected token {other:?}"), line)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_let_and_expression() {
        let p = parse("let x = 1 + 2 * 3;").unwrap();
        assert_eq!(p.main.len(), 1);
        match &p.main[0].kind {
            StmtKind::Let { name, init } => {
                assert_eq!(name, "x");
                // 1 + (2 * 3) by precedence.
                match &init.kind {
                    ExprKind::Bin {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(rhs.kind, ExprKind::Bin { op: BinOp::Mul, .. }));
                    }
                    other => panic!("bad tree: {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parses_function_definition() {
        let p = parse("fn add(a, b) { return a + b; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params, vec!["a", "b"]);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn for_desugars_range() {
        let p = parse("for i in range(0, 10) { i; }").unwrap();
        match &p.main[0].kind {
            StmtKind::ForRange {
                var,
                start,
                end,
                body,
            } => {
                assert_eq!(var, "i");
                assert_eq!(start.kind, ExprKind::Num(0.0));
                assert_eq!(end.kind, ExprKind::Num(10.0));
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected for, got {other:?}"),
        }
        assert!(parse("for i in stuff { }").is_err());
        assert!(parse("for i in range(1) { }").is_err());
    }

    #[test]
    fn else_if_chains() {
        let p = parse("if a { 1; } else if b { 2; } else { 3; }").unwrap();
        match &p.main[0].kind {
            StmtKind::If { else_block, .. } => {
                assert_eq!(else_block.len(), 1);
                assert!(matches!(else_block[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn assignments_and_targets() {
        assert!(matches!(
            parse("x = 1;").unwrap().main[0].kind,
            StmtKind::Assign { .. }
        ));
        assert!(matches!(
            parse("a[0] = 1;").unwrap().main[0].kind,
            StmtKind::IndexAssign { .. }
        ));
        assert!(parse("1 = 2;").is_err());
        assert!(parse("f() = 2;").is_err());
    }

    #[test]
    fn trailing_expression_needs_no_semicolon() {
        let p = parse("let x = 1; x").unwrap();
        assert!(matches!(
            p.main[1].kind,
            StmtKind::Expr(Expr {
                kind: ExprKind::Var(_),
                ..
            })
        ));
        let p = parse("if a { x }").unwrap();
        assert!(matches!(p.main[0].kind, StmtKind::If { .. }));
        // But two expressions without a separator fail.
        assert!(parse("x y").is_err());
    }

    #[test]
    fn nested_fn_rejected() {
        assert!(parse("fn f() { fn g() { } }").is_err());
    }

    #[test]
    fn return_outside_fn_rejected() {
        assert!(parse("return 1;").is_err());
    }

    #[test]
    fn duplicate_params_rejected() {
        assert!(parse("fn f(a, a) { }").is_err());
    }

    #[test]
    fn short_circuit_operators_parse_with_precedence() {
        // `a or b and c` is `a or (b and c)`.
        let p = parse("a or b and c").unwrap();
        match &p.main[0].kind {
            StmtKind::Expr(Expr {
                kind: ExprKind::Or(_, rhs),
                ..
            }) => assert!(matches!(rhs.kind, ExprKind::And(_, _))),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn postfix_index_chains() {
        let p = parse("m[i][j]").unwrap();
        match &p.main[0].kind {
            StmtKind::Expr(Expr {
                kind: ExprKind::Index { base, .. },
                ..
            }) => {
                assert!(matches!(base.kind, ExprKind::Index { .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn unterminated_block_is_an_error() {
        assert!(parse("while x { ").is_err());
        assert!(parse("{ let a = 1;").is_err());
    }

    #[test]
    fn call_argument_lists() {
        let p = parse("f(1, 2, g(3))").unwrap();
        match &p.main[0].kind {
            StmtKind::Expr(Expr {
                kind: ExprKind::Call { name, args },
                ..
            }) => {
                assert_eq!(name, "f");
                assert_eq!(args.len(), 3);
                assert!(matches!(args[2].kind, ExprKind::Call { .. }));
            }
            other => panic!("bad parse: {other:?}"),
        }
        let p = parse("f()").unwrap();
        match &p.main[0].kind {
            StmtKind::Expr(Expr {
                kind: ExprKind::Call { args, .. },
                ..
            }) => assert!(args.is_empty()),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn every_node_carries_its_source_line() {
        let src = "let a = 1;\nlet b = a +\n  2;\nif a < b {\n  b = a / b;\n}";
        let p = parse(src).unwrap();
        assert_eq!(p.main[0].line, 1);
        assert_eq!(p.main[1].line, 2);
        match &p.main[1].kind {
            StmtKind::Let { init, .. } => {
                // The `+` operator sits on line 2; its rhs literal on line 3.
                assert_eq!(init.line, 2);
                match &init.kind {
                    ExprKind::Bin { rhs, .. } => assert_eq!(rhs.line, 3),
                    other => panic!("bad tree: {other:?}"),
                }
            }
            other => panic!("expected let, got {other:?}"),
        }
        assert_eq!(p.main[2].line, 4);
        match &p.main[2].kind {
            StmtKind::If { then_block, .. } => {
                assert_eq!(then_block[0].line, 5);
                match &then_block[0].kind {
                    StmtKind::Assign { value, .. } => assert_eq!(value.line, 5),
                    other => panic!("expected assign, got {other:?}"),
                }
            }
            other => panic!("expected if, got {other:?}"),
        }
        // Function definitions already carried lines; they still do.
        let p = parse("\n\nfn f(x) { return x; }").unwrap();
        assert_eq!(p.functions[0].line, 3);
        assert_eq!(p.functions[0].body[0].line, 3);
    }
}
