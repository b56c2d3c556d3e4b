//! # starling-sql
//!
//! The SQL subset and rule definition language of the Starling production
//! rule system — a faithful reconstruction of the set-oriented, SQL-based
//! Starburst rule language of \[WCL91\]/\[WF90\] as described in Section 2 of
//! the paper.
//!
//! The crate provides:
//!
//! * a [`lexer`] and recursive-descent [`parser`] for scripts containing
//!   `CREATE TABLE` DDL, DML statements, and `CREATE RULE` definitions:
//!
//!   ```sql
//!   create rule bonus on emp
//!   when inserted, updated(salary)
//!   if exists (select * from new_updated where salary > 100)
//!   then update emp set bonus = 10 where salary > 100
//!   precedes audit_rule
//!   end
//!   ```
//!
//! * semantic [`validate`]-ion against a catalog (unknown tables/columns,
//!   transition tables used without the matching triggering operation,
//!   aggregate placement, type errors): one walk over a statement's names,
//!   which over a rule also collects its `Reads`;
//! * the paper's Section 3 definitions ([`refs`]): `Triggered-By`,
//!   `Performs`, `Reads` and `Observable` from
//!   [`RuleSignature::of_rule`], which validates the rule, and the
//!   `Triggers` / `Can-Untrigger` relations between signatures; `refs` also
//!   holds the scope every column name resolves through, in validation and
//!   in the [`plan`] compiler alike;
//! * an [`eval`]-uator with SQL three-valued logic, subqueries (including
//!   correlated), aggregates, and transition-table references, executing
//!   against a [`starling_storage::Database`] and reporting tuple-level
//!   effects for the engine's operation log.
//!
//! Transition tables are spelled `inserted`, `deleted`, `new_updated`, and
//! `old_updated` (the paper's `new-updated`/`old-updated`, with `_` since `-`
//! is the minus operator in SQL).
//!
//! ```
//! use starling_sql::{parse_statement, RuleSignature};
//! use starling_sql::ast::Statement;
//! use starling_storage::{Catalog, ColumnDef, Op, TableSchema, ValueType};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(TableSchema::new(
//!     "emp",
//!     vec![ColumnDef::new("salary", ValueType::Int)],
//! ).unwrap()).unwrap();
//!
//! let Statement::CreateRule(rule) = parse_statement(
//!     "create rule cap on emp when updated(salary) \
//!      then update emp set salary = 500 where salary > 500 end",
//! )? else { unreachable!() };
//!
//! let sig = RuleSignature::of_rule(&rule, &catalog)?;
//! assert!(sig.triggered_by.contains(&Op::update("emp", "salary")));
//! assert!(sig.performs.contains(&Op::update("emp", "salary")));
//! assert!(!sig.observable);
//! # Ok::<(), starling_sql::SqlError>(())
//! ```

pub mod ast;
pub mod display;
pub mod error;
pub mod eval;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod refs;
pub mod token;
pub mod validate;

pub use ast::{
    Action, ColumnRef, CreateTable, Expr, FromItem, InsertSource, RuleBody, RuleDef, SelectItem,
    SelectStmt, Statement, TransitionTable, TriggerEvent,
};
pub use error::SqlError;
pub use json::{digest_json, Json, JsonError};
pub use parser::{parse_expr, parse_script, parse_statement};
pub use refs::RuleSignature;

/// Convenient result alias for SQL operations.
pub type Result<T> = std::result::Result<T, SqlError>;
