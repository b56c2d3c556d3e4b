//! Recursive-descent parser for scripts, statements, and expressions.

use starling_storage::{ColumnDef, TableSchema, Value, ValueType};

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::lex;
use crate::token::{Keyword, Pos, Token, TokenKind};

/// Parses a whole script: a sequence of statements separated/terminated by
/// `;`.
pub fn parse_script(input: &str) -> Result<Vec<Statement>, SqlError> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semi) {}
        if p.at_eof() {
            return Ok(out);
        }
        out.push(p.statement()?);
    }
}

/// Parses exactly one statement (trailing `;` optional).
pub fn parse_statement(input: &str) -> Result<Statement, SqlError> {
    let mut p = Parser::new(input)?;
    let s = p.statement()?;
    p.eat(&TokenKind::Semi);
    p.expect_eof()?;
    Ok(s)
}

/// Parses a standalone expression (useful for tests and the CLI).
pub fn parse_expr(input: &str) -> Result<Expr, SqlError> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, SqlError> {
        Ok(Parser {
            tokens: lex(input)?,
            idx: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.idx].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.idx + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn pos(&self) -> Pos {
        self.tokens[self.idx].pos
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.idx].kind.clone();
        if self.idx + 1 < self.tokens.len() {
            self.idx += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err(&self, message: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.pos(),
            message: message.into(),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        self.eat(&TokenKind::Keyword(kw))
    }

    fn at_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), SqlError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), SqlError> {
        self.expect(&TokenKind::Keyword(kw))
    }

    fn expect_eof(&mut self) -> Result<(), SqlError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("expected end of input, found {}", self.peek())))
        }
    }

    /// An identifier. Transition-table keywords (`inserted`, `deleted`) are
    /// *not* identifiers; names like `new_updated` lex as plain identifiers.
    fn ident(&mut self) -> Result<String, SqlError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// A name usable as a table in FROM: identifier or transition-table
    /// keyword.
    fn table_name(&mut self) -> Result<TableRef, SqlError> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let r = match TransitionTable::from_name(s) {
                    Some(t) => TableRef::Transition(t),
                    None => TableRef::Base(s.clone()),
                };
                self.bump();
                Ok(r)
            }
            TokenKind::Keyword(Keyword::Inserted) => {
                self.bump();
                Ok(TableRef::Transition(TransitionTable::Inserted))
            }
            TokenKind::Keyword(Keyword::Deleted) => {
                self.bump();
                Ok(TableRef::Transition(TransitionTable::Deleted))
            }
            other => Err(self.err(format!("expected table name, found {other}"))),
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>, SqlError> {
        let mut out = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.ident()?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, SqlError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Create) => self.create(),
            TokenKind::Keyword(Keyword::Declare) => self.directive(),
            TokenKind::Keyword(Keyword::Drop) => {
                self.bump();
                self.expect_kw(Keyword::Rule)?;
                Ok(Statement::DropRule(self.ident()?))
            }
            TokenKind::Keyword(Keyword::Alter) => {
                self.bump();
                self.expect_kw(Keyword::Rule)?;
                let name = self.ident()?;
                let mut precedes = Vec::new();
                let mut follows = Vec::new();
                loop {
                    if self.eat_kw(Keyword::Precedes) {
                        precedes.extend(self.ident_list()?);
                    } else if self.eat_kw(Keyword::Follows) {
                        follows.extend(self.ident_list()?);
                    } else {
                        break;
                    }
                }
                if precedes.is_empty() && follows.is_empty() {
                    return Err(self.err("alter rule needs a `precedes` or `follows` clause"));
                }
                Ok(Statement::AlterRule {
                    name,
                    precedes,
                    follows,
                })
            }
            _ => Ok(Statement::Dml(self.action()?)),
        }
    }

    fn create(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw(Keyword::Create)?;
        if self.eat_kw(Keyword::Table) {
            self.create_table()
        } else if self.eat_kw(Keyword::Rule) {
            self.create_rule()
        } else {
            Err(self.err(format!(
                "expected `table` or `rule` after `create`, found {}",
                self.peek()
            )))
        }
    }

    fn create_table(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut cols = Vec::new();
        loop {
            let cname = self.ident()?;
            let ty = self.value_type()?;
            let mut nullable = false;
            if self.eat_kw(Keyword::Not) {
                self.expect_kw(Keyword::Null)?;
            } else if self.eat_kw(Keyword::Null) {
                nullable = true;
            }
            cols.push(ColumnDef {
                name: cname,
                ty,
                nullable,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        let schema = TableSchema::new(name, cols).map_err(SqlError::Storage)?;
        Ok(Statement::CreateTable(CreateTable { schema }))
    }

    fn value_type(&mut self) -> Result<ValueType, SqlError> {
        let t = match self.peek() {
            TokenKind::Keyword(Keyword::Int) | TokenKind::Keyword(Keyword::Integer) => {
                ValueType::Int
            }
            TokenKind::Keyword(Keyword::Float) | TokenKind::Keyword(Keyword::Real) => {
                ValueType::Float
            }
            TokenKind::Keyword(Keyword::Varchar)
            | TokenKind::Keyword(Keyword::Text)
            | TokenKind::Keyword(Keyword::String_) => ValueType::Str,
            TokenKind::Keyword(Keyword::Bool) | TokenKind::Keyword(Keyword::Boolean) => {
                ValueType::Bool
            }
            other => return Err(self.err(format!("expected column type, found {other}"))),
        };
        self.bump();
        // Optional `(n)` length, accepted and ignored (VARCHAR(20)).
        if self.eat(&TokenKind::LParen) {
            match self.bump() {
                TokenKind::Int(_) => {}
                other => return Err(self.err(format!("expected type length, found {other}"))),
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(t)
    }

    fn create_rule(&mut self) -> Result<Statement, SqlError> {
        let name = self.ident()?;
        self.expect_kw(Keyword::On)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::When)?;
        let mut events = vec![self.trigger_event()?];
        while self.eat(&TokenKind::Comma) {
            events.push(self.trigger_event()?);
        }
        let condition = if self.eat_kw(Keyword::If) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_kw(Keyword::Then)?;
        let mut actions = vec![self.action()?];
        while self.eat(&TokenKind::Semi) {
            if self.at_kw(Keyword::End)
                || self.at_kw(Keyword::Precedes)
                || self.at_kw(Keyword::Follows)
            {
                break;
            }
            actions.push(self.action()?);
        }
        let mut precedes = Vec::new();
        let mut follows = Vec::new();
        loop {
            if self.eat_kw(Keyword::Precedes) {
                precedes.extend(self.ident_list()?);
            } else if self.eat_kw(Keyword::Follows) {
                follows.extend(self.ident_list()?);
            } else {
                break;
            }
        }
        self.expect_kw(Keyword::End)?;
        let mut def = RuleDef::new(RuleBody::new(name, table, events, condition, actions));
        def.precedes = precedes;
        def.follows = follows;
        Ok(Statement::CreateRule(def))
    }

    fn trigger_event(&mut self) -> Result<TriggerEvent, SqlError> {
        if self.eat_kw(Keyword::Inserted) {
            Ok(TriggerEvent::Inserted)
        } else if self.eat_kw(Keyword::Deleted) {
            Ok(TriggerEvent::Deleted)
        } else if self.eat_kw(Keyword::Updated) {
            if self.eat(&TokenKind::LParen) {
                let cols = self.ident_list()?;
                self.expect(&TokenKind::RParen)?;
                Ok(TriggerEvent::Updated(Some(cols)))
            } else {
                Ok(TriggerEvent::Updated(None))
            }
        } else {
            Err(self.err(format!(
                "expected `inserted`, `deleted`, or `updated`, found {}",
                self.peek()
            )))
        }
    }

    fn directive(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw(Keyword::Declare)?;
        if self.eat_kw(Keyword::Commute) {
            let a = self.ident()?;
            self.expect(&TokenKind::Comma)?;
            let b = self.ident()?;
            Ok(Statement::Directive(Directive::Commute(a, b)))
        } else if self.eat_kw(Keyword::Terminates) {
            let rule = self.ident()?;
            let justification = match self.peek() {
                TokenKind::Str(s) => {
                    let s = s.clone();
                    self.bump();
                    s
                }
                other => {
                    return Err(self.err(format!("expected justification string, found {other}")))
                }
            };
            Ok(Statement::Directive(Directive::Terminates {
                rule,
                justification,
            }))
        } else {
            Err(self.err(format!(
                "expected `commute` or `terminates` after `declare`, found {}",
                self.peek()
            )))
        }
    }

    // ------------------------------------------------------------------
    // Actions / DML
    // ------------------------------------------------------------------

    fn action(&mut self) -> Result<Action, SqlError> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Insert) => self.insert().map(Action::Insert),
            TokenKind::Keyword(Keyword::Delete) => self.delete().map(Action::Delete),
            TokenKind::Keyword(Keyword::Update) => self.update().map(Action::Update),
            TokenKind::Keyword(Keyword::Select) => self.select().map(Action::Select),
            TokenKind::Keyword(Keyword::Rollback) => {
                self.bump();
                Ok(Action::Rollback)
            }
            other => Err(self.err(format!(
                "expected `insert`, `delete`, `update`, `select`, or `rollback`, found {other}"
            ))),
        }
    }

    fn insert(&mut self) -> Result<InsertStmt, SqlError> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident()?;
        // Optional explicit column list — requires lookahead to distinguish
        // `insert into t (a, b) values ...` from `insert into t values ...`
        // only via the keyword after: column list always followed by VALUES
        // or SELECT keyword.
        let mut columns = None;
        if matches!(self.peek(), TokenKind::LParen) && matches!(self.peek2(), TokenKind::Ident(_)) {
            self.bump(); // (
            let cols = self.ident_list()?;
            self.expect(&TokenKind::RParen)?;
            columns = Some(cols);
        }
        let source = if self.eat_kw(Keyword::Values) {
            let mut rows = vec![self.value_tuple()?];
            while self.eat(&TokenKind::Comma) {
                rows.push(self.value_tuple()?);
            }
            InsertSource::Values(rows)
        } else if self.at_kw(Keyword::Select) {
            InsertSource::Select(self.select()?)
        } else {
            return Err(self.err(format!(
                "expected `values` or `select`, found {}",
                self.peek()
            )));
        };
        Ok(InsertStmt {
            table,
            columns,
            source,
        })
    }

    fn value_tuple(&mut self) -> Result<Vec<Expr>, SqlError> {
        self.expect(&TokenKind::LParen)?;
        let mut out = vec![self.expr()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.expr()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(out)
    }

    fn delete(&mut self) -> Result<DeleteStmt, SqlError> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(DeleteStmt {
            table,
            where_clause,
        })
    }

    fn update(&mut self) -> Result<UpdateStmt, SqlError> {
        self.expect_kw(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_kw(Keyword::Set)?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Eq)?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(UpdateStmt {
            table,
            sets,
            where_clause,
        })
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        let mut items = vec![self.select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_kw(Keyword::From) {
            from.push(self.parse_from_item()?);
            while self.eat(&TokenKind::Comma) {
                from.push(self.parse_from_item()?);
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            group_by.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw(Keyword::Having) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw(Keyword::Desc) {
                    true
                } else {
                    self.eat_kw(Keyword::Asc);
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        Ok(SelectStmt {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Keyword::As) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem, SqlError> {
        let table = self.table_name()?;
        // An alias follows either an explicit `as` or as a bare identifier
        // that cannot be a transition-table name.
        let alias = if self.eat_kw(Keyword::As)
            || matches!(self.peek(), TokenKind::Ident(s) if TransitionTable::from_name(s).is_none())
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(FromItem { table, alias })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    /// `expr := or_expr`
    pub(crate) fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(Keyword::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw(Keyword::And) {
            let rhs = self.not_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<Expr, SqlError> {
        if self.at_kw(Keyword::Exists) {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            let s = self.select()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::Exists(Box::new(s)));
        }
        let lhs = self.additive()?;
        // Postfix predicate forms.
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = if self.at_kw(Keyword::Not)
            && matches!(
                self.peek2(),
                TokenKind::Keyword(Keyword::In)
                    | TokenKind::Keyword(Keyword::Between)
                    | TokenKind::Keyword(Keyword::Like)
            ) {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw(Keyword::In) {
            self.expect(&TokenKind::LParen)?;
            if self.at_kw(Keyword::Select) {
                let s = self.select()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSelect {
                    expr: Box::new(lhs),
                    select: Box::new(s),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.expr()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw(Keyword::Between) {
            let low = self.additive()?;
            self.expect_kw(Keyword::And)?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw(Keyword::Like) {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.err("expected `in`, `between`, or `like` after `not`"));
        }
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat(&TokenKind::Minus) {
            Ok(Expr::Neg(Box::new(self.unary()?)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(x) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(x)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::LParen => {
                self.bump();
                if self.at_kw(Keyword::Select) {
                    let s = self.select()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(s)))
                } else {
                    let e = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(e)
                }
            }
            TokenKind::Keyword(Keyword::Count) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let agg = if self.eat(&TokenKind::Star) {
                    Expr::Aggregate {
                        func: Aggregate::CountStar,
                        arg: None,
                    }
                } else {
                    let e = self.expr()?;
                    Expr::Aggregate {
                        func: Aggregate::Count,
                        arg: Some(Box::new(e)),
                    }
                };
                self.expect(&TokenKind::RParen)?;
                Ok(agg)
            }
            TokenKind::Keyword(k @ (Keyword::Sum | Keyword::Avg | Keyword::Min | Keyword::Max)) => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let func = match k {
                    Keyword::Sum => Aggregate::Sum,
                    Keyword::Avg => Aggregate::Avg,
                    Keyword::Min => Aggregate::Min,
                    _ => Aggregate::Max,
                };
                Ok(Expr::Aggregate {
                    func,
                    arg: Some(Box::new(e)),
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::Dot) {
                    let col = self.ident()?;
                    Ok(Expr::Column(ColumnRef::qualified(name, col)))
                } else {
                    Ok(Expr::Column(ColumnRef::bare(name)))
                }
            }
            // Transition-table keywords can qualify columns: `inserted.x`.
            TokenKind::Keyword(k @ (Keyword::Inserted | Keyword::Deleted)) => {
                self.bump();
                let qual = match k {
                    Keyword::Inserted => "inserted",
                    _ => "deleted",
                };
                self.expect(&TokenKind::Dot)?;
                let col = self.ident()?;
                Ok(Expr::Column(ColumnRef::qualified(qual, col)))
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(input: &str) -> RuleDef {
        match parse_statement(input).unwrap() {
            Statement::CreateRule(r) => r,
            s => panic!("expected rule, got {s:?}"),
        }
    }

    #[test]
    fn create_table_with_types() {
        let s = parse_statement(
            "create table emp (id integer, name varchar(20) not null, sal float null, ok boolean)",
        )
        .unwrap();
        let Statement::CreateTable(ct) = s else {
            panic!()
        };
        assert_eq!(ct.schema.name, "emp");
        assert_eq!(ct.schema.arity(), 4);
        assert!(!ct.schema.columns[1].nullable);
        assert!(ct.schema.columns[2].nullable);
        assert_eq!(ct.schema.columns[3].ty, ValueType::Bool);
    }

    #[test]
    fn minimal_rule() {
        let r = rule("create rule r1 on emp when inserted then delete from emp end");
        assert_eq!(r.name, "r1");
        assert_eq!(r.table, "emp");
        assert_eq!(r.events, vec![TriggerEvent::Inserted]);
        assert!(r.condition.is_none());
        assert_eq!(r.actions.len(), 1);
        assert!(r.precedes.is_empty());
    }

    #[test]
    fn full_rule() {
        let r = rule(
            "create rule raise on emp \
             when updated(salary), inserted \
             if exists (select * from new_updated where salary > 100) \
             then update emp set bonus = bonus + 1 where salary > 100; \
                  insert into log values (1, 'raised') \
             precedes audit, cleanup \
             follows init \
             end",
        );
        assert_eq!(
            r.events,
            vec![
                TriggerEvent::Updated(Some(vec!["salary".into()])),
                TriggerEvent::Inserted
            ]
        );
        assert!(r.condition.is_some());
        assert_eq!(r.actions.len(), 2);
        assert_eq!(r.precedes, vec!["audit".to_owned(), "cleanup".to_owned()]);
        assert_eq!(r.follows, vec!["init".to_owned()]);
    }

    #[test]
    fn rule_with_trailing_semi_before_end() {
        let r = rule("create rule r on t when deleted then rollback; end");
        assert_eq!(r.actions, vec![Action::Rollback]);
    }

    #[test]
    fn updated_any_column() {
        let r = rule("create rule r on t when updated then rollback end");
        assert_eq!(r.events, vec![TriggerEvent::Updated(None)]);
    }

    #[test]
    fn insert_forms() {
        let Statement::Dml(Action::Insert(i)) =
            parse_statement("insert into t (a, b) values (1, 'x'), (2, 'y')").unwrap()
        else {
            panic!()
        };
        assert_eq!(i.columns.as_deref().unwrap().len(), 2);
        let InsertSource::Values(rows) = &i.source else {
            panic!()
        };
        assert_eq!(rows.len(), 2);

        let Statement::Dml(Action::Insert(i)) =
            parse_statement("insert into t select * from u where x > 0").unwrap()
        else {
            panic!()
        };
        assert!(i.columns.is_none());
        assert!(matches!(i.source, InsertSource::Select(_)));
    }

    #[test]
    fn select_with_aliases_and_join() {
        let Statement::Dml(Action::Select(s)) = parse_statement(
            "select distinct e.name, d.budget as b from emp as e, dept d where e.dno = d.dno",
        )
        .unwrap() else {
            panic!()
        };
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].binding(), "e");
        assert_eq!(s.from[1].binding(), "d");
    }

    #[test]
    fn transition_tables_in_from() {
        let Statement::Dml(Action::Select(s)) =
            parse_statement("select * from inserted, new_updated").unwrap()
        else {
            panic!()
        };
        assert_eq!(
            s.from[0].table,
            TableRef::Transition(TransitionTable::Inserted)
        );
        assert_eq!(
            s.from[1].table,
            TableRef::Transition(TransitionTable::NewUpdated)
        );
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 and not 4 > 5 or x is null").unwrap();
        // (((1 + (2*3)) = 7) AND (NOT (4 > 5))) OR (x IS NULL)
        let Expr::Binary { op: BinOp::Or, .. } = e else {
            panic!("top should be OR: {e:?}")
        };
    }

    #[test]
    fn between_like_in() {
        assert!(matches!(
            parse_expr("x between 1 and 10").unwrap(),
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("x not between 1 and 10").unwrap(),
            Expr::Between { negated: true, .. }
        ));
        assert!(matches!(
            parse_expr("name like 'a%'").unwrap(),
            Expr::Like { negated: false, .. }
        ));
        assert!(matches!(
            parse_expr("x in (1, 2, 3)").unwrap(),
            Expr::InList { .. }
        ));
        assert!(matches!(
            parse_expr("x not in (select y from t)").unwrap(),
            Expr::InSelect { negated: true, .. }
        ));
    }

    #[test]
    fn scalar_subquery_vs_paren_expr() {
        assert!(matches!(
            parse_expr("(select count(*) from t) > 5").unwrap(),
            Expr::Binary { .. }
        ));
        // ORDER BY parses with directions and multiple keys.
        let Statement::Dml(Action::Select(s)) =
            parse_statement("select a from t where a > 0 order by a desc, b, c asc").unwrap()
        else {
            panic!()
        };
        assert_eq!(s.order_by.len(), 3);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert!(!s.order_by[2].desc);
        assert!(matches!(
            parse_expr("(1 + 2)").unwrap(),
            Expr::Binary { op: BinOp::Add, .. }
        ));
    }

    #[test]
    fn aggregates() {
        assert!(matches!(
            parse_expr("count(*)").unwrap(),
            Expr::Aggregate {
                func: Aggregate::CountStar,
                arg: None
            }
        ));
        assert!(matches!(
            parse_expr("sum(salary)").unwrap(),
            Expr::Aggregate {
                func: Aggregate::Sum,
                ..
            }
        ));
    }

    #[test]
    fn directives() {
        assert_eq!(
            parse_statement("declare commute r1, r2").unwrap(),
            Statement::Directive(Directive::Commute("r1".into(), "r2".into()))
        );
        assert_eq!(
            parse_statement("declare terminates cleanup 'deletes only'").unwrap(),
            Statement::Directive(Directive::Terminates {
                rule: "cleanup".into(),
                justification: "deletes only".into()
            })
        );
    }

    #[test]
    fn script_with_multiple_statements() {
        let stmts = parse_script(
            "create table t (a int);\n\
             insert into t values (1);;\n\
             create rule r on t when inserted then delete from t end;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn parse_errors_have_position() {
        let err = parse_statement("select from").unwrap_err();
        let SqlError::Parse { message, .. } = err else {
            panic!()
        };
        assert!(message.contains("expected expression"), "{message}");
    }

    #[test]
    fn error_on_trailing_tokens() {
        assert!(parse_statement("rollback rollback").is_err());
    }

    #[test]
    fn negative_numbers_and_neg() {
        assert!(matches!(parse_expr("-5").unwrap(), Expr::Neg(_)));
        assert!(matches!(
            parse_expr("a - -5").unwrap(),
            Expr::Binary { op: BinOp::Sub, .. }
        ));
    }

    #[test]
    fn transition_column_qualifiers() {
        assert_eq!(
            parse_expr("inserted.salary").unwrap(),
            Expr::Column(ColumnRef::qualified("inserted", "salary"))
        );
        assert_eq!(
            parse_expr("old_updated.salary").unwrap(),
            Expr::Column(ColumnRef::qualified("old_updated", "salary"))
        );
    }

    #[test]
    fn update_multiple_sets() {
        let Statement::Dml(Action::Update(u)) =
            parse_statement("update t set a = 1, b = b + 1 where c < 3").unwrap()
        else {
            panic!()
        };
        assert_eq!(u.sets.len(), 2);
        assert!(u.where_clause.is_some());
    }
}
