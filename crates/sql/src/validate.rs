//! Semantic validation of statements against a catalog: the one walk over
//! a statement's names.
//!
//! The walk resolves every column through the scope stack of
//! [`crate::refs`] and records each resolved column as read, so walking a
//! rule also yields its `Reads` ([`crate::RuleSignature::of_rule`] is that
//! walk). Beyond name resolution, validation enforces:
//!
//! * transition tables may only be referenced when the rule's transition
//!   predicate includes the corresponding operation (paper Section 2: "A rule
//!   may refer only to transition tables corresponding to its triggering
//!   operations");
//! * aggregates appear only in select lists, never nested;
//! * `INSERT` arity matches the target column list / schema;
//! * `UPDATE ... SET` columns exist;
//! * `IN (SELECT ...)` and scalar subqueries produce exactly one column.

use std::collections::BTreeSet;

use starling_storage::{Catalog, ColRef};

use crate::ast::*;
use crate::error::SqlError;
use crate::refs::Scope;

/// Validates a rule's condition and actions and returns every column they
/// read, transition-table columns mapped to the rule's table.
pub(crate) fn rule_reads(rule: &RuleDef, catalog: &Catalog) -> Result<BTreeSet<ColRef>, SqlError> {
    if rule.events.is_empty() {
        return Err(SqlError::validate(format!(
            "rule `{}` has no triggering operations",
            rule.name
        )));
    }
    catalog.table(&rule.table)?;

    let mut w = Walker::new(catalog, Some(&rule.table), AllowedTransitions::of(rule));
    if let Some(cond) = &rule.condition {
        w.expr(cond, ExprPos::Where)?;
    }
    if rule.actions.is_empty() {
        return Err(SqlError::validate(format!(
            "rule `{}` has no actions",
            rule.name
        )));
    }
    for a in &rule.actions {
        w.action(a).map_err(|e| prefix(&rule.name, e))?;
    }
    Ok(w.reads)
}

/// Validates a standalone DML statement (no rule context: transition tables
/// are rejected).
pub fn validate_dml(action: &Action, catalog: &Catalog) -> Result<(), SqlError> {
    Walker::new(catalog, None, AllowedTransitions::none()).action(action)
}

fn prefix(rule: &str, e: SqlError) -> SqlError {
    match e {
        SqlError::Validate(m) => SqlError::Validate(format!("rule `{rule}`: {m}")),
        other => other,
    }
}

/// Which transition tables the rule's transition predicate permits.
struct AllowedTransitions {
    inserted: bool,
    deleted: bool,
    updated: bool,
}

impl AllowedTransitions {
    fn of(rule: &RuleDef) -> Self {
        let mut a = AllowedTransitions::none();
        for e in &rule.events {
            match e {
                TriggerEvent::Inserted => a.inserted = true,
                TriggerEvent::Deleted => a.deleted = true,
                TriggerEvent::Updated(_) => a.updated = true,
            }
        }
        a
    }

    fn none() -> Self {
        AllowedTransitions {
            inserted: false,
            deleted: false,
            updated: false,
        }
    }

    fn permits(&self, t: TransitionTable) -> bool {
        match t {
            TransitionTable::Inserted => self.inserted,
            TransitionTable::Deleted => self.deleted,
            TransitionTable::NewUpdated | TransitionTable::OldUpdated => self.updated,
        }
    }
}

/// Where an expression occurs; aggregates are legal only in select items.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ExprPos {
    SelectItem,
    Where,
    InsideAggregate,
}

/// The walk: the scope names resolve in, the transition tables the rule
/// may name, and every column resolved so far.
struct Walker<'a> {
    catalog: &'a Catalog,
    scope: Scope<'a>,
    allowed: AllowedTransitions,
    reads: BTreeSet<ColRef>,
}

impl<'a> Walker<'a> {
    fn new(catalog: &'a Catalog, rule_table: Option<&'a str>, allowed: AllowedTransitions) -> Self {
        Walker {
            catalog,
            scope: Scope::new(catalog, rule_table),
            allowed,
            reads: BTreeSet::new(),
        }
    }

    /// Runs `f` inside the frame the caller just pushed, then pops it.
    fn in_frame(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        let r = f(self);
        self.scope.pop();
        r
    }

    fn action(&mut self, action: &Action) -> Result<(), SqlError> {
        match action {
            Action::Insert(i) => {
                let schema = self.catalog.table(&i.table)?;
                let arity = match &i.columns {
                    Some(cols) => {
                        for c in cols {
                            if schema.column_index(c).is_none() {
                                return Err(SqlError::validate(format!(
                                    "insert target `{}` has no column `{c}`",
                                    i.table
                                )));
                            }
                        }
                        cols.len()
                    }
                    None => schema.arity(),
                };
                match &i.source {
                    InsertSource::Values(rows) => {
                        for row in rows {
                            if row.len() != arity {
                                return Err(SqlError::validate(format!(
                                    "insert into `{}` expects {arity} values, got {}",
                                    i.table,
                                    row.len()
                                )));
                            }
                            for e in row {
                                self.expr(e, ExprPos::Where)?;
                            }
                        }
                    }
                    InsertSource::Select(s) => {
                        self.select(s)?;
                        if let Some(n) = self.select_width(s) {
                            if n != arity {
                                return Err(SqlError::validate(format!(
                                    "insert into `{}` expects {arity} columns, select yields {n}",
                                    i.table
                                )));
                            }
                        }
                    }
                }
                Ok(())
            }
            Action::Delete(d) => {
                self.catalog.table(&d.table)?;
                if let Some(w) = &d.where_clause {
                    self.scope.push_table(&d.table)?;
                    self.in_frame(|me| me.expr(w, ExprPos::Where))?;
                }
                Ok(())
            }
            Action::Update(u) => {
                let schema = self.catalog.table(&u.table)?;
                for (c, _) in &u.sets {
                    if schema.column_index(c).is_none() {
                        return Err(SqlError::validate(format!(
                            "update target `{}` has no column `{c}`",
                            u.table
                        )));
                    }
                }
                self.scope.push_table(&u.table)?;
                self.in_frame(|me| {
                    for (_, e) in &u.sets {
                        me.expr(e, ExprPos::Where)?;
                    }
                    if let Some(w) = &u.where_clause {
                        me.expr(w, ExprPos::Where)?;
                    }
                    Ok(())
                })
            }
            Action::Select(s) => self.select(s),
            Action::Rollback => Ok(()),
        }
    }

    /// Output width of a select, when statically computable.
    fn select_width(&mut self, s: &SelectStmt) -> Option<usize> {
        // Wildcard width needs the from-item schemas in scope.
        self.scope.push_from(&s.from).ok()?;
        let mut n = 0;
        for item in &s.items {
            n += match item {
                SelectItem::Wildcard => self
                    .scope
                    .innermost()
                    .iter()
                    .map(|b| self.catalog.table(&b.table).map_or(0, |t| t.arity()))
                    .sum(),
                SelectItem::Expr { .. } => 1,
            };
        }
        self.scope.pop();
        Some(n)
    }

    fn select(&mut self, s: &SelectStmt) -> Result<(), SqlError> {
        for fi in &s.from {
            if let TableRef::Transition(t) = &fi.table {
                if !self.allowed.permits(*t) {
                    return Err(SqlError::validate(format!(
                        "transition table `{}` does not correspond to any triggering operation",
                        t.name()
                    )));
                }
            }
        }
        self.scope.push_from(&s.from)?;
        self.in_frame(|me| {
            if s.items.is_empty() {
                return Err(SqlError::validate("empty select list"));
            }
            for item in &s.items {
                match item {
                    // `select *` reads every column of every from-item.
                    SelectItem::Wildcard => {
                        for b in me.scope.innermost() {
                            let schema = me.catalog.table(&b.table)?;
                            for c in schema.column_names() {
                                me.reads.insert(ColRef::new(b.table.clone(), c));
                            }
                        }
                    }
                    SelectItem::Expr { expr, .. } => me.expr(expr, ExprPos::SelectItem)?,
                }
            }
            if let Some(w) = &s.where_clause {
                me.expr(w, ExprPos::Where)?;
            }
            for e in &s.group_by {
                me.expr(e, ExprPos::Where)?;
            }
            if let Some(h) = &s.having {
                // HAVING may contain aggregates, like a select item.
                me.expr(h, ExprPos::SelectItem)?;
            }
            for o in &s.order_by {
                // ORDER BY keys may be aggregates when the query is grouped.
                let pos = if s.group_by.is_empty() {
                    ExprPos::Where
                } else {
                    ExprPos::SelectItem
                };
                me.expr(&o.expr, pos)?;
            }
            Ok(())
        })
    }

    fn single_column(&mut self, s: &SelectStmt, what: &str) -> Result<(), SqlError> {
        match self.select_width(s) {
            Some(n) if n != 1 => Err(SqlError::validate(format!(
                "{what} must produce exactly one column, got {n}"
            ))),
            _ => Ok(()),
        }
    }

    fn expr(&mut self, e: &Expr, pos: ExprPos) -> Result<(), SqlError> {
        match e {
            Expr::Literal(_) => Ok(()),
            Expr::Column(c) => {
                // A transition table binds the rule's table, so its columns
                // read the rule's table (paper: "for every (trans).c
                // referenced, t.c is in Reads(r) for r's triggering table t").
                let slot = self.scope.resolve(c)?;
                let b = self.scope.binding(&slot).expect("a resolved slot");
                self.reads
                    .insert(ColRef::new(b.table.clone(), c.column.clone()));
                Ok(())
            }
            Expr::Binary { lhs, rhs, .. } => {
                // Operands of a binary op are no longer "directly" a select
                // item, but aggregates inside arithmetic in a select item are
                // fine: keep position.
                self.expr(lhs, pos)?;
                self.expr(rhs, pos)
            }
            Expr::Neg(x) | Expr::Not(x) => self.expr(x, pos),
            Expr::IsNull { expr, .. } => self.expr(expr, pos),
            Expr::InList { expr, list, .. } => {
                self.expr(expr, pos)?;
                for x in list {
                    self.expr(x, pos)?;
                }
                Ok(())
            }
            Expr::InSelect { expr, select, .. } => {
                self.expr(expr, pos)?;
                self.select(select)?;
                self.single_column(select, "IN subquery")
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                self.expr(expr, pos)?;
                self.expr(low, pos)?;
                self.expr(high, pos)
            }
            Expr::Like { expr, pattern, .. } => {
                self.expr(expr, pos)?;
                self.expr(pattern, pos)
            }
            Expr::Exists(s) => self.select(s),
            Expr::ScalarSubquery(s) => {
                self.select(s)?;
                self.single_column(s, "scalar subquery")
            }
            Expr::Aggregate { arg, .. } => {
                if pos == ExprPos::InsideAggregate {
                    return Err(SqlError::validate("nested aggregate"));
                }
                if pos != ExprPos::SelectItem {
                    return Err(SqlError::validate(
                        "aggregate is only allowed in a select list",
                    ));
                }
                match arg {
                    Some(x) => self.expr(x, ExprPos::InsideAggregate),
                    None => Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in [
            ("emp", vec!["id", "salary", "dno"]),
            ("dept", vec!["dno", "budget"]),
        ] {
            c.add_table(
                TableSchema::new(
                    name,
                    cols.into_iter()
                        .map(|n| ColumnDef::new(n, ValueType::Int))
                        .collect(),
                )
                .unwrap(),
            )
            .unwrap();
        }
        c
    }

    fn check_rule(src: &str) -> Result<(), SqlError> {
        let Statement::CreateRule(r) = parse_statement(src).unwrap() else {
            panic!()
        };
        rule_reads(&r, &catalog()).map(drop)
    }

    fn check_stmt(src: &str) -> Result<(), SqlError> {
        let Statement::Dml(a) = parse_statement(src).unwrap() else {
            panic!()
        };
        validate_dml(&a, &catalog())
    }

    #[test]
    fn good_rule_passes() {
        check_rule(
            "create rule r on emp when inserted, updated(salary) \
             if exists (select * from inserted) \
             then update dept set budget = budget - 1 where dno in \
               (select dno from new_updated) end",
        )
        .unwrap();
    }

    #[test]
    fn transition_table_must_match_events() {
        let e = check_rule(
            "create rule r on emp when inserted \
             then delete from emp where id in (select id from deleted) end",
        )
        .unwrap_err();
        assert!(e.to_string().contains("does not correspond"), "{e}");

        let e = check_rule(
            "create rule r on emp when deleted \
             then delete from emp where id in (select id from new_updated) end",
        )
        .unwrap_err();
        assert!(e.to_string().contains("does not correspond"), "{e}");
    }

    #[test]
    fn insert_arity_checked() {
        assert!(check_stmt("insert into dept values (1, 2)").is_ok());
        let e = check_stmt("insert into dept values (1)").unwrap_err();
        assert!(e.to_string().contains("expects 2 values"), "{e}");
        let e = check_stmt("insert into dept (dno) values (1, 2)").unwrap_err();
        assert!(e.to_string().contains("expects 1 values"), "{e}");
        let e = check_stmt("insert into dept (zz) values (1)").unwrap_err();
        assert!(e.to_string().contains("no column `zz`"), "{e}");
    }

    #[test]
    fn insert_select_width_checked() {
        assert!(check_stmt("insert into dept select dno, budget from dept").is_ok());
        assert!(check_stmt("insert into dept select * from dept").is_ok());
        let e = check_stmt("insert into dept select dno from dept").unwrap_err();
        assert!(e.to_string().contains("select yields 1"), "{e}");
        let e = check_stmt("insert into dept select * from emp").unwrap_err();
        assert!(e.to_string().contains("select yields 3"), "{e}");
    }

    #[test]
    fn update_set_column_checked() {
        assert!(check_stmt("update emp set salary = 1").is_ok());
        let e = check_stmt("update emp set wage = 1").unwrap_err();
        assert!(e.to_string().contains("no column `wage`"), "{e}");
    }

    #[test]
    fn aggregates_only_in_select_list() {
        assert!(check_stmt("select count(*) from emp").is_ok());
        assert!(check_stmt("select sum(salary) + 1 from emp").is_ok());
        let e = check_stmt("select id from emp where sum(salary) > 1").unwrap_err();
        assert!(
            e.to_string().contains("only allowed in a select list"),
            "{e}"
        );
        let e = check_stmt("select sum(sum(salary)) from emp").unwrap_err();
        assert!(e.to_string().contains("nested aggregate"), "{e}");
    }

    #[test]
    fn subqueries_single_column() {
        assert!(check_stmt("select id from emp where dno in (select dno from dept)").is_ok());
        let e = check_stmt("select id from emp where dno in (select * from dept)").unwrap_err();
        assert!(e.to_string().contains("exactly one column"), "{e}");
        let e = check_stmt("select id from emp where id = (select * from dept)").unwrap_err();
        assert!(e.to_string().contains("exactly one column"), "{e}");
    }

    #[test]
    fn rule_must_have_events_and_actions() {
        // Parser requires >= 1 of each, so construct directly.
        let rule = RuleDef {
            name: "r".into(),
            table: "emp".into(),
            events: vec![],
            condition: None,
            actions: vec![Action::Rollback],
            precedes: vec![],
            follows: vec![],
        };
        assert!(rule_reads(&rule, &catalog()).is_err());
    }

    #[test]
    fn dml_rejects_transition_tables() {
        let e = check_stmt("select * from inserted").unwrap_err();
        assert!(e.to_string().contains("transition table"), "{e}");
    }

    #[test]
    fn unknown_table_rejected() {
        assert!(check_stmt("delete from nowhere").is_err());
        assert!(check_rule("create rule r on nowhere when inserted then rollback end").is_err());
    }

    #[test]
    fn empty_select_list_would_be_rejected() {
        // Parser cannot produce it; construct directly.
        let s = SelectStmt {
            distinct: false,
            items: vec![],
            from: vec![],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
        };
        let cat = catalog();
        let mut w = Walker::new(&cat, None, AllowedTransitions::none());
        assert!(w.select(&s).is_err());
    }
}
