//! Abstract syntax for the SQL subset and the rule definition language.
//!
//! The rule DDL mirrors the paper's Section 2 syntax:
//!
//! ```text
//! create rule name on table
//!     when transition-predicate
//!     [ if condition ]
//!     then action ; action ; ...
//!     [ precedes rule-list ]
//!     [ follows rule-list ]
//! end
//! ```

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use starling_storage::{TableSchema, Value};

use crate::refs::SignatureMemo;

/// A transition table reference (paper Section 2).
///
/// At rule consideration time these logical tables reflect the net effect of
/// the rule's triggering transition on the rule's table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransitionTable {
    /// Tuples inserted by the triggering transition.
    Inserted,
    /// Tuples deleted by the triggering transition.
    Deleted,
    /// New values of updated tuples.
    NewUpdated,
    /// Old values of updated tuples.
    OldUpdated,
}

impl TransitionTable {
    /// The surface spelling (`inserted`, `deleted`, `new_updated`,
    /// `old_updated`).
    pub fn name(self) -> &'static str {
        match self {
            TransitionTable::Inserted => "inserted",
            TransitionTable::Deleted => "deleted",
            TransitionTable::NewUpdated => "new_updated",
            TransitionTable::OldUpdated => "old_updated",
        }
    }

    /// Parses a surface spelling.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "inserted" => Some(TransitionTable::Inserted),
            "deleted" => Some(TransitionTable::Deleted),
            "new_updated" => Some(TransitionTable::NewUpdated),
            "old_updated" => Some(TransitionTable::OldUpdated),
            _ => None,
        }
    }
}

/// A table named in a `FROM` clause: either a base table or a transition
/// table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableRef {
    /// A base table in the catalog.
    Base(String),
    /// A transition table of the enclosing rule.
    Transition(TransitionTable),
}

impl TableRef {
    /// The name as written.
    pub fn name(&self) -> &str {
        match self {
            TableRef::Base(s) => s,
            TableRef::Transition(t) => t.name(),
        }
    }
}

/// One item of a `FROM` clause, with optional alias.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FromItem {
    /// The table.
    pub table: TableRef,
    /// Optional alias (`FROM emp e` or `FROM emp AS e`).
    pub alias: Option<String>,
}

impl FromItem {
    /// The name this item binds in scope: the alias if present, else the
    /// table name.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or_else(|| self.table.name())
    }
}

/// A possibly-qualified column reference (`salary` or `e.salary`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional qualifier (table name or alias).
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            column: column.into(),
        }
    }

    /// A qualified reference.
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }

    /// Whether this operator compares (yields boolean from non-boolean
    /// operands).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this operator is arithmetic.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }
}

/// Aggregate functions (allowed in select lists only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` — non-null count.
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl Aggregate {
    /// Surface spelling (without parentheses).
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::CountStar | Aggregate::Count => "count",
            Aggregate::Sum => "sum",
            Aggregate::Avg => "avg",
            Aggregate::Min => "min",
            Aggregate::Max => "max",
        }
    }
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference.
    Column(ColumnRef),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSelect {
        /// Tested expression.
        expr: Box<Expr>,
        /// Single-column subquery.
        select: Box<SelectStmt>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `EXISTS (SELECT ...)`.
    Exists(Box<SelectStmt>),
    /// A parenthesized single-row, single-column subquery used as a value.
    ScalarSubquery(Box<SelectStmt>),
    /// An aggregate call (select lists only).
    Aggregate {
        /// The aggregate function.
        func: Aggregate,
        /// Argument (`None` only for `COUNT(*)`).
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Integer literal shorthand.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Column reference shorthand.
    pub fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    /// Binary expression shorthand.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }
}

/// One item of a select list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*` — all columns of all from-items, in scope order.
    Wildcard,
    /// An expression with optional output alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional `AS name`.
        alias: Option<String>,
    },
}

/// One `ORDER BY` key.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderItem {
    /// The sort expression (evaluated in the select's row scope).
    pub expr: Expr,
    /// `DESC` when true (`ASC` is the default).
    pub desc: bool,
}

/// A `SELECT` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// `FROM` items (cartesian product).
    pub from: Vec<FromItem>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys (empty = no grouping; aggregates then form a single
    /// group).
    pub group_by: Vec<Expr>,
    /// Optional `HAVING` predicate (may contain aggregates), applied per
    /// group.
    pub having: Option<Expr>,
    /// `ORDER BY` keys (empty = engine scan order). `NULL` sorts first.
    pub order_by: Vec<OrderItem>,
}

/// Source of rows for an `INSERT`.
#[derive(Clone, Debug, PartialEq)]
pub enum InsertSource {
    /// `VALUES (..), (..)`.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT ...`.
    Select(SelectStmt),
}

/// `INSERT INTO table [(cols)] source`.
#[derive(Clone, Debug, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Optional explicit column list; omitted means all columns in schema
    /// order.
    pub columns: Option<Vec<String>>,
    /// Row source.
    pub source: InsertSource,
}

/// `DELETE FROM table [WHERE expr]`.
#[derive(Clone, Debug, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional predicate.
    pub where_clause: Option<Expr>,
}

/// `UPDATE table SET c = e, ... [WHERE expr]`.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET` assignments.
    pub sets: Vec<(String, Expr)>,
    /// Optional predicate.
    pub where_clause: Option<Expr>,
}

/// A rule action (or a top-level DML statement).
///
/// Per the paper, an action is "an arbitrary sequence of SQL data manipulation
/// operations". `SELECT` and `ROLLBACK` actions are *observable* (Section 8).
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Insert rows.
    Insert(InsertStmt),
    /// Delete rows.
    Delete(DeleteStmt),
    /// Update rows.
    Update(UpdateStmt),
    /// Retrieve data (observable).
    Select(SelectStmt),
    /// Abort the transaction (observable).
    Rollback,
}

impl Action {
    /// Whether this action is visible to the environment (paper Section 8:
    /// "if it performs data retrieval or a rollback statement").
    pub fn is_observable(&self) -> bool {
        matches!(self, Action::Select(_) | Action::Rollback)
    }
}

/// One triggering operation in a rule's transition predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerEvent {
    /// `when inserted`.
    Inserted,
    /// `when deleted`.
    Deleted,
    /// `when updated` (any column) or `when updated(c1, ..., cn)`.
    Updated(Option<Vec<String>>),
}

/// A production rule definition (paper Section 2): its body, shared, and
/// its orderings.
///
/// The body is everything a rule's signature and its analyses read of it;
/// the orderings are what the §6.4 `order` step edits. Cloning a
/// definition, or editing its orderings, shares the body: a rule set
/// compiled from it, an analysis context and the pair store all hold the
/// same [`RuleBody`], so an untouched rule is recognised by a pointer
/// comparison. Reads go through `Deref` (`def.name`, `def.actions`);
/// writes to the body go through [`RuleDef::body_mut`] alone, which keeps
/// the body's signature memo honest.
#[derive(Clone, Debug)]
pub struct RuleDef {
    /// Name, table, transition predicate, condition and actions.
    body: Arc<RuleBody>,
    /// Rules this rule precedes (has priority over).
    pub precedes: Vec<String>,
    /// Rules this rule follows (that have priority over it).
    pub follows: Vec<String>,
}

impl RuleDef {
    /// A definition of `body` with no orderings.
    pub fn new(body: RuleBody) -> Self {
        RuleDef {
            body: Arc::new(body),
            precedes: Vec::new(),
            follows: Vec::new(),
        }
    }

    /// The body's shared handle.
    pub fn body(&self) -> &Arc<RuleBody> {
        &self.body
    }

    /// The body, for writing: unshared from every other holder
    /// (`Arc::make_mut`) and with its memoized signature dropped, since
    /// the edit may change it.
    pub fn body_mut(&mut self) -> &mut RuleBody {
        let body = Arc::make_mut(&mut self.body);
        body.memo.clear();
        body
    }
}

impl Deref for RuleDef {
    type Target = RuleBody;

    fn deref(&self) -> &RuleBody {
        &self.body
    }
}

impl PartialEq for RuleDef {
    fn eq(&self, other: &RuleDef) -> bool {
        (Arc::ptr_eq(&self.body, &other.body) || *self.body == *other.body)
            && self.precedes == other.precedes
            && self.follows == other.follows
    }
}

/// A rule's body: all of its definition but the orderings.
///
/// The body memoizes its Section 3 signature against the catalog it was
/// derived from (see [`RuleBody::signature`]). The memo is invisible to
/// equality and `Debug`, and a clone starts without one.
#[derive(Clone)]
pub struct RuleBody {
    /// Rule name.
    pub name: String,
    /// The rule's table.
    pub table: String,
    /// Transition predicate: triggering operations on the rule's table.
    pub events: Vec<TriggerEvent>,
    /// Optional SQL condition.
    pub condition: Option<Expr>,
    /// Action: a sequence of DML operations.
    pub actions: Vec<Action>,
    pub(crate) memo: SignatureMemo,
}

impl RuleBody {
    /// A body with an empty signature memo.
    pub fn new(
        name: String,
        table: String,
        events: Vec<TriggerEvent>,
        condition: Option<Expr>,
        actions: Vec<Action>,
    ) -> Self {
        RuleBody {
            name,
            table,
            events,
            condition,
            actions,
            memo: SignatureMemo::default(),
        }
    }
}

impl PartialEq for RuleBody {
    fn eq(&self, other: &RuleBody) -> bool {
        self.name == other.name
            && self.table == other.table
            && self.events == other.events
            && self.condition == other.condition
            && self.actions == other.actions
    }
}

impl fmt::Debug for RuleBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleBody")
            .field("name", &self.name)
            .field("table", &self.table)
            .field("events", &self.events)
            .field("condition", &self.condition)
            .field("actions", &self.actions)
            .finish_non_exhaustive()
    }
}

/// `CREATE TABLE` DDL.
#[derive(Clone, Debug, PartialEq)]
pub struct CreateTable {
    /// The declared schema.
    pub schema: TableSchema,
}

/// A user certification directive, input to the interactive analysis
/// (paper Sections 5 and 6.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Directive {
    /// `declare commute r1, r2` — the user certifies that two rules that
    /// appear noncommutative by Lemma 6.1 actually commute.
    Commute(String, String),
    /// `declare terminates r 'justification'` — the user certifies that
    /// cycles through rule `r` terminate (repeated consideration eventually
    /// falsifies `r`'s condition or nullifies its action).
    Terminates {
        /// The certified rule.
        rule: String,
        /// Free-text justification recorded in reports.
        justification: String,
    },
}

/// A top-level statement in a script.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE`.
    CreateTable(CreateTable),
    /// `CREATE RULE ... END`.
    CreateRule(RuleDef),
    /// `DROP RULE name`.
    DropRule(String),
    /// `ALTER RULE name [PRECEDES list] [FOLLOWS list]` — adds orderings to
    /// an existing rule (the §6.4 "Approach 2" remedy, as DDL).
    AlterRule {
        /// The rule to amend.
        name: String,
        /// Rules it should now precede.
        precedes: Vec<String>,
        /// Rules it should now follow.
        follows: Vec<String>,
    },
    /// A DML statement or `ROLLBACK`.
    Dml(Action),
    /// A `DECLARE` certification directive.
    Directive(Directive),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_names_round_trip() {
        for t in [
            TransitionTable::Inserted,
            TransitionTable::Deleted,
            TransitionTable::NewUpdated,
            TransitionTable::OldUpdated,
        ] {
            assert_eq!(TransitionTable::from_name(t.name()), Some(t));
        }
        assert_eq!(TransitionTable::from_name("emp"), None);
    }

    #[test]
    fn from_item_binding() {
        let f = FromItem {
            table: TableRef::Base("emp".into()),
            alias: Some("e".into()),
        };
        assert_eq!(f.binding(), "e");
        let g = FromItem {
            table: TableRef::Transition(TransitionTable::Inserted),
            alias: None,
        };
        assert_eq!(g.binding(), "inserted");
    }

    #[test]
    fn observability() {
        assert!(Action::Rollback.is_observable());
        assert!(Action::Select(SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
        })
        .is_observable());
        assert!(!Action::Delete(DeleteStmt {
            table: "t".into(),
            where_clause: None
        })
        .is_observable());
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::Eq.is_arithmetic());
        assert!(BinOp::Add.is_arithmetic());
        assert!(!BinOp::And.is_comparison());
    }
}
