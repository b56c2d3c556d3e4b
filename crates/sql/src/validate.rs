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
//! * a grouped select's items, `HAVING` and `ORDER BY` keys combine only
//!   `GROUP BY` keys, aggregates and literals;
//! * `INSERT` arity matches the target column list / schema;
//! * `UPDATE ... SET` columns exist;
//! * `IN (SELECT ...)` and scalar subqueries produce exactly one column.

use std::collections::BTreeSet;

use starling_storage::{Catalog, ColRef, TableSchema};

use crate::ast::*;
use crate::error::SqlError;
use crate::eval::select::is_grouped;
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

/// Where an expression occurs.
#[derive(Clone, Copy)]
enum ExprPos<'e> {
    /// An item, `HAVING` or `ORDER BY` key of a select grouped by these keys.
    Grouped(&'e [Expr]),
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
                            target_column(schema, "insert", c)?;
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
                    target_column(schema, "update", c)?;
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
            // A grouped select's clauses are evaluated once per group.
            let grouped = is_grouped(s);
            let pos = if grouped {
                ExprPos::Grouped(&s.group_by)
            } else {
                ExprPos::Where
            };
            for item in &s.items {
                match item {
                    SelectItem::Wildcard if grouped => return Err(grouped_wildcard()),
                    // `select *` reads every column of every from-item.
                    SelectItem::Wildcard => {
                        for b in me.scope.innermost() {
                            let schema = me.catalog.table(&b.table)?;
                            for c in schema.column_names() {
                                me.reads.insert(ColRef::new(b.table.clone(), c));
                            }
                        }
                    }
                    SelectItem::Expr { expr, .. } => me.expr(expr, pos)?,
                }
            }
            if let Some(w) = &s.where_clause {
                me.expr(w, ExprPos::Where)?;
            }
            for e in &s.group_by {
                me.expr(e, ExprPos::Where)?;
            }
            for e in s.having.iter().chain(s.order_by.iter().map(|o| &o.expr)) {
                me.expr(e, pos)?;
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

    fn expr(&mut self, e: &Expr, pos: ExprPos<'_>) -> Result<(), SqlError> {
        // Per group, a `GROUP BY` key (walked with the keys) reads the
        // group's key; the rest combines keys, aggregates and literals.
        if let ExprPos::Grouped(keys) = pos {
            if keys.contains(e) {
                return Ok(());
            }
            if let Some(err) = not_grouped(e) {
                return Err(err);
            }
        }
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
                if let ExprPos::InsideAggregate = pos {
                    return Err(SqlError::validate("nested aggregate"));
                }
                if let ExprPos::Where = pos {
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

/// Why `e`, which is no `GROUP BY` key, cannot be evaluated once per
/// group (the interpreter's message); `None` for a literal, an aggregate or
/// an operator over such operands.
pub(crate) fn not_grouped(e: &Expr) -> Option<SqlError> {
    let why = match e {
        Expr::Column(c) => format!("column `{c}` must appear in GROUP BY or inside an aggregate"),
        Expr::Literal(_) | Expr::Aggregate { .. } | Expr::Binary { .. } => return None,
        Expr::Neg(_) | Expr::Not(_) | Expr::IsNull { .. } => return None,
        _ => "unsupported expression in a grouped select list".to_owned(),
    };
    Some(SqlError::validate(why))
}

/// The index of column `c` of an `insert` or `update` target.
pub(crate) fn target_column(schema: &TableSchema, stmt: &str, c: &str) -> Result<usize, SqlError> {
    schema.column_index(c).ok_or_else(|| {
        SqlError::validate(format!(
            "{stmt} target `{}` has no column `{c}`",
            schema.name
        ))
    })
}

/// The error for a `*` item in a grouped select.
pub(crate) fn grouped_wildcard() -> SqlError {
    SqlError::validate("cannot use `*` with aggregates or GROUP BY")
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

    /// A grouped select reads only `GROUP BY` keys, aggregates and literals
    /// in its items, `HAVING` and `ORDER BY` keys, with the interpreter's
    /// messages; an aggregate `ORDER BY` key is legal whenever the select
    /// is grouped.
    #[test]
    fn grouped_placement_checked() {
        for ok in [
            "select dno, count(*) from emp group by dno",
            "select salary / 10, max(id) from emp group by salary / 10",
            "select count(*) from emp order by count(*)",
            "select dno from emp group by dno having sum(salary) > dno * 2 order by sum(id) desc",
            "select -count(*), not (min(id) is null) from emp having true",
            "select id from emp where dno in (select dno from dept group by dno)",
        ] {
            check_stmt(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        let column =
            |c: &str| format!("column `{c}` must appear in GROUP BY or inside an aggregate");
        let unsupported = "unsupported expression in a grouped select list".to_owned();
        for (bad, why) in [
            ("select dno, count(*) from emp", column("dno")),
            ("select salary from emp group by dno", column("salary")),
            ("select emp.dno from emp group by dno", column("emp.dno")),
            (
                "select count(*) from emp group by dno having salary > 1",
                column("salary"),
            ),
            ("select count(*) from emp order by id", column("id")),
            (
                "select dno from emp group by dno order by salary",
                column("salary"),
            ),
            ("select id from emp having count(*) > 1", column("id")),
            (
                "select *, count(*) from emp",
                "cannot use `*` with aggregates or GROUP BY".to_owned(),
            ),
            (
                "select * from emp group by dno",
                "cannot use `*` with aggregates or GROUP BY".to_owned(),
            ),
            (
                "select count(*) between 1 and 2 from emp",
                unsupported.clone(),
            ),
            ("select count(*) in (1, 2) from emp", unsupported.clone()),
            (
                "select (select max(budget) from dept), count(*) from emp",
                unsupported.clone(),
            ),
            (
                "select dno from emp group by dno having exists (select * from dept)",
                unsupported,
            ),
        ] {
            let e = check_stmt(bad).unwrap_err();
            assert_eq!(e, SqlError::validate(why), "{bad}");
        }
        // A non-grouped select still refuses an aggregate ORDER BY key.
        let e = check_stmt("select id from emp order by count(*)").unwrap_err();
        assert!(
            e.to_string().contains("only allowed in a select list"),
            "{e}"
        );
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
