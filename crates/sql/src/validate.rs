//! Semantic validation of statements against a catalog: the one walk over
//! a statement's names.
//!
//! The walk resolves every column through the scope stack of
//! [`crate::refs`] and records each resolved column as read, so walking a
//! rule also yields its `Reads` ([`crate::RuleSignature::of_rule`] is that
//! walk). It also types every expression in the static type lattice of
//! [`crate::refs`], the one the plan compiler reads. Beyond name
//! resolution, validation enforces:
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
//! * `IN (SELECT ...)` and scalar subqueries produce exactly one column;
//! * operands have types their operator takes: comparable comparisons
//!   (`IN` and `BETWEEN` included), numbers in arithmetic, negation, `SUM`
//!   and `AVG`, strings in `LIKE`, booleans in `WHERE`, `HAVING`, a rule's
//!   condition, `AND`, `OR` and `NOT`; an `INSERT` or `SET` value has a
//!   type its column accepts, and never `NULL` for a `NOT NULL` column.
//!
//! Typing is static, as in standard SQL: it also types operands a
//! short-circuit would skip. Overflow, division by zero and a scalar
//! subquery's row count stay runtime errors.

use std::collections::BTreeSet;

use starling_storage::{Catalog, ColRef, TableSchema};

use crate::ast::*;
use crate::error::SqlError;
use crate::eval::select::is_grouped;
use crate::refs::{Scope, Ty};

/// Validates a rule's condition and actions and returns every column they
/// read, transition-table columns mapped to the rule's table.
pub(crate) fn rule_reads(rule: &RuleBody, catalog: &Catalog) -> Result<BTreeSet<ColRef>, SqlError> {
    if rule.events.is_empty() {
        return Err(SqlError::validate(format!(
            "rule `{}` has no triggering operations",
            rule.name
        )));
    }
    catalog.table(&rule.table)?;

    let mut w = Walker::new(catalog, Some(rule));
    if let Some(cond) = &rule.condition {
        w.condition(cond)?;
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
    Walker::new(catalog, None).action(action)
}

fn prefix(rule: &str, e: SqlError) -> SqlError {
    match e {
        SqlError::Validate(m) => SqlError::Validate(format!("rule `{rule}`: {m}")),
        other => other,
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

/// The walk: the scope names resolve in, the rule's triggering operations
/// (none outside a rule), and every column resolved so far.
struct Walker<'a> {
    catalog: &'a Catalog,
    scope: Scope<'a>,
    events: &'a [TriggerEvent],
    reads: BTreeSet<ColRef>,
}

impl<'a> Walker<'a> {
    fn new(catalog: &'a Catalog, rule: Option<&'a RuleBody>) -> Self {
        Walker {
            catalog,
            scope: Scope::new(catalog, rule.map(|r| r.table.as_str())),
            events: rule.map_or(&[], |r| &r.events),
            reads: BTreeSet::new(),
        }
    }

    /// Whether the rule's transition predicate permits naming `t`.
    fn permits(&self, t: TransitionTable) -> bool {
        self.events.iter().any(|e| match e {
            TriggerEvent::Inserted => t == TransitionTable::Inserted,
            TriggerEvent::Deleted => t == TransitionTable::Deleted,
            TriggerEvent::Updated(_) => {
                matches!(t, TransitionTable::NewUpdated | TransitionTable::OldUpdated)
            }
        })
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
                // Refuses a value of type `ty` at position `pos` of a row,
                // if the column it lands in cannot store it.
                let store = |pos: usize, ty: Ty| {
                    let col = match &i.columns {
                        Some(cols) => cols.get(pos).and_then(|c| schema.column(c)),
                        None => schema.columns.get(pos),
                    };
                    col.map_or(Ok(()), |col| ty.store(&i.table, col))
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
                            for (pos, e) in row.iter().enumerate() {
                                let ty = self.expr(e, ExprPos::Where)?;
                                store(pos, ty)?;
                            }
                        }
                    }
                    InsertSource::Select(s) => {
                        // A column the target cannot store is reported after
                        // the select's own errors and its width.
                        let mut refused = None;
                        let n = self.select(s, &mut |pos, ty| {
                            if refused.is_none() {
                                refused = store(pos, ty).err();
                            }
                        })?;
                        if n != arity {
                            return Err(SqlError::validate(format!(
                                "insert into `{}` expects {arity} columns, select yields {n}",
                                i.table
                            )));
                        }
                        if let Some(e) = refused {
                            return Err(e);
                        }
                    }
                }
                // A column the list omits is written NULL.
                if let Some(cols) = &i.columns {
                    for col in schema.columns.iter().filter(|c| !cols.contains(&c.name)) {
                        Ty::Null.store(&i.table, col)?;
                    }
                }
                Ok(())
            }
            Action::Delete(d) => {
                self.catalog.table(&d.table)?;
                if let Some(w) = &d.where_clause {
                    self.scope.push_table(&d.table)?;
                    self.in_frame(|me| me.condition(w))?;
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
                    for (c, e) in &u.sets {
                        let col = schema.column(c).expect("a checked target column");
                        me.expr(e, ExprPos::Where)?.store(&u.table, col)?;
                    }
                    if let Some(w) = &u.where_clause {
                        me.condition(w)?;
                    }
                    Ok(())
                })
            }
            Action::Select(s) => self.select(s, &mut |_, _| {}).map(drop),
            Action::Rollback => Ok(()),
        }
    }

    /// Walks a select and returns its width, passing each output column's
    /// type to `column` with its position.
    fn select(
        &mut self,
        s: &SelectStmt,
        column: &mut dyn FnMut(usize, Ty),
    ) -> Result<usize, SqlError> {
        for fi in &s.from {
            if let TableRef::Transition(t) = &fi.table {
                if !self.permits(*t) {
                    return Err(SqlError::validate(format!(
                        "transition table `{}` does not correspond to any triggering operation",
                        t.name()
                    )));
                }
            }
        }
        self.scope.push_from(&s.from)?;
        let mut width = 0;
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
                            for c in &b.schema.columns {
                                me.reads.insert(ColRef::new(b.schema.name.clone(), &c.name));
                                column(width, Ty::of_decl(c.ty));
                                width += 1;
                            }
                        }
                    }
                    SelectItem::Expr { expr, .. } => {
                        column(width, me.expr(expr, pos)?);
                        width += 1;
                    }
                }
            }
            if let Some(w) = &s.where_clause {
                me.condition(w)?;
            }
            for e in &s.group_by {
                me.expr(e, ExprPos::Where)?;
            }
            if let Some(h) = &s.having {
                me.expr(h, pos)?.condition()?;
            }
            for o in &s.order_by {
                me.expr(&o.expr, pos)?;
            }
            Ok(())
        })?;
        Ok(width)
    }

    /// The type of a subquery that must produce exactly one column.
    fn single_column(&mut self, s: &SelectStmt, what: &str) -> Result<Ty, SqlError> {
        let mut ty = Ty::Unknown;
        match self.select(s, &mut |pos, t| {
            if pos == 0 {
                ty = t;
            }
        })? {
            1 => Ok(ty),
            n => Err(SqlError::validate(format!(
                "{what} must produce exactly one column, got {n}"
            ))),
        }
    }

    /// Walks a `WHERE`-position expression that must be boolean.
    fn condition(&mut self, e: &Expr) -> Result<(), SqlError> {
        self.expr(e, ExprPos::Where)?.condition()
    }

    /// Walks an expression and returns its static type.
    fn expr(&mut self, e: &Expr, pos: ExprPos<'_>) -> Result<Ty, SqlError> {
        // Per group, a `GROUP BY` key (walked with the keys) reads the
        // group's key; the rest combines keys, aggregates and literals.
        if let ExprPos::Grouped(keys) = pos {
            if keys.contains(e) {
                return self.expr(e, ExprPos::Where);
            }
            if let Some(err) = not_grouped(e) {
                return Err(err);
            }
        }
        match e {
            Expr::Literal(v) => Ok(Ty::of_value(v)),
            Expr::Column(c) => {
                // A transition table binds the rule's table, so its columns
                // read the rule's table (paper: "for every (trans).c
                // referenced, t.c is in Reads(r) for r's triggering table t").
                let (slot, ty) = self.scope.resolve(c)?;
                let (schema, _) = self.scope.column(&slot).expect("a resolved slot");
                self.reads
                    .insert(ColRef::new(schema.name.clone(), c.column.clone()));
                Ok(Ty::of_decl(ty))
            }
            Expr::Binary { op, lhs, rhs } => {
                // Operands of a binary op are no longer "directly" a select
                // item, but aggregates inside arithmetic in a select item are
                // fine: keep position.
                let l = self.expr(lhs, pos)?;
                let r = self.expr(rhs, pos)?;
                Ty::binary(*op, l, r)
            }
            Expr::Neg(x) => self.expr(x, pos)?.neg(),
            Expr::Not(x) => {
                self.expr(x, pos)?.condition()?;
                Ok(Ty::Bool)
            }
            Expr::IsNull { expr, .. } => {
                self.expr(expr, pos)?;
                Ok(Ty::Bool)
            }
            Expr::InList { expr, list, .. } => {
                let needle = self.expr(expr, pos)?;
                for x in list {
                    needle.compare(self.expr(x, pos)?)?;
                }
                Ok(Ty::Bool)
            }
            Expr::InSelect { expr, select, .. } => {
                let needle = self.expr(expr, pos)?;
                needle.compare(self.single_column(select, "IN subquery")?)?;
                Ok(Ty::Bool)
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                let v = self.expr(expr, pos)?;
                v.compare(self.expr(low, pos)?)?;
                v.compare(self.expr(high, pos)?)?;
                Ok(Ty::Bool)
            }
            Expr::Like { expr, pattern, .. } => {
                let v = self.expr(expr, pos)?;
                Ty::like(v, self.expr(pattern, pos)?)
            }
            Expr::Exists(s) => {
                self.select(s, &mut |_, _| {})?;
                Ok(Ty::Bool)
            }
            Expr::ScalarSubquery(s) => self.single_column(s, "scalar subquery"),
            Expr::Aggregate { func, arg } => {
                if let ExprPos::InsideAggregate = pos {
                    return Err(SqlError::validate("nested aggregate"));
                }
                if let ExprPos::Where = pos {
                    return Err(SqlError::validate(
                        "aggregate is only allowed in a select list",
                    ));
                }
                let arg = match arg {
                    Some(x) => self.expr(x, ExprPos::InsideAggregate)?,
                    None => Ty::Null,
                };
                Ty::aggregate(*func, arg)
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
        let e = check_stmt("insert into dept (dno) select dno, budget from dept").unwrap_err();
        assert!(e.to_string().contains("select yields 2"), "{e}");
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

    /// Every expression is typed: an operator, a condition or a written
    /// value the runtime would refuse on every non-NULL value is refused
    /// here, with the runtime's wording and type names for values.
    #[test]
    fn ill_typed_statements_refused() {
        let mut cat = catalog();
        cat.add_table(
            TableSchema::new(
                "typed",
                vec![
                    ColumnDef::new("i", ValueType::Int),
                    ColumnDef::new("f", ValueType::Float),
                    ColumnDef::new("s", ValueType::Str),
                    ColumnDef::new("b", ValueType::Bool),
                    ColumnDef::nullable("n", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let check = |src: &str| {
            let Statement::Dml(a) = parse_statement(src).unwrap() else {
                panic!()
            };
            validate_dml(&a, &cat)
        };
        for ok in [
            "insert into typed values (1, 2, 'x', true, null)",
            "insert into typed values (1, 2.5, 'x', false, 3)",
            "insert into typed (i, f, s, b) values (-1, -2.5, 'y', not true)",
            "insert into typed select i, i / 2, s, f > i, null from typed where s like 'a%'",
            "insert into typed select count(*), avg(i), max(s), min(b), sum(i) from typed",
            "update typed set f = i + f, n = null where b and i between 1 and 2.5",
            "delete from typed where n in (1, f) or n is null or null",
            "select i from typed where s in (select max(s) from typed) \
             group by i having count(*) > 1",
            "select * from typed where (select f from typed) < 1 and null = 's'",
        ] {
            check(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for (bad, why) in [
            (
                "insert into typed values ('x', 2, 'x', true, null)",
                "type mismatch for `typed.i`: expected INTEGER, found VARCHAR",
            ),
            (
                "insert into typed values (null, 2, 'x', true, null)",
                "NULL written to non-nullable column `typed.i`",
            ),
            (
                "insert into typed (i, f, s) values (1, 2, 'x')",
                "NULL written to non-nullable column `typed.b`",
            ),
            (
                "insert into typed select f, f, s, b, n from typed",
                "type mismatch for `typed.i`: expected INTEGER, found FLOAT",
            ),
            (
                "update typed set b = 1",
                "type mismatch for `typed.b`: expected BOOLEAN, found INTEGER",
            ),
            (
                "select i from typed where i = 'x'",
                "cannot compare INTEGER with VARCHAR",
            ),
            (
                "select i from typed where b < 1",
                "cannot compare BOOLEAN with INTEGER",
            ),
            (
                "select i from typed where i in (1, 's')",
                "cannot compare INTEGER with VARCHAR",
            ),
            (
                "select i from typed where i between 1 and 'z'",
                "cannot compare INTEGER with VARCHAR",
            ),
            (
                "select i from typed where s in (select i from typed)",
                "cannot compare VARCHAR with INTEGER",
            ),
            (
                "select s + 1 from typed",
                "arithmetic on non-numeric values VARCHAR and INTEGER",
            ),
            ("select -b from typed", "cannot negate BOOLEAN"),
            (
                "select i from typed where i like 'x'",
                "LIKE requires strings, got INTEGER and VARCHAR",
            ),
            (
                "select i from typed where i",
                "expected boolean, got INTEGER",
            ),
            (
                "select i from typed where false and s",
                "expected boolean, got VARCHAR",
            ),
            (
                "select i from typed where not f",
                "expected boolean, got FLOAT",
            ),
            ("delete from typed where s", "expected boolean, got VARCHAR"),
            (
                "select count(*) from typed having count(*)",
                "expected boolean, got INTEGER",
            ),
            (
                "select sum(s) from typed",
                "cannot aggregate non-numeric value VARCHAR",
            ),
            (
                "select avg(b) from typed",
                "cannot aggregate non-numeric value BOOLEAN",
            ),
        ] {
            assert_eq!(check(bad), Err(SqlError::validate(why)), "{bad}");
        }
        // A rule's condition must be boolean too.
        let Statement::CreateRule(r) =
            parse_statement("create rule r on typed when inserted if 1 + 1 then rollback end")
                .unwrap()
        else {
            panic!()
        };
        let e = rule_reads(&r, &cat).unwrap_err();
        assert_eq!(e, SqlError::validate("expected boolean, got INTEGER"));
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
        let rule = RuleBody::new(
            "r".into(),
            "emp".into(),
            vec![],
            None,
            vec![Action::Rollback],
        );
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
        let mut w = Walker::new(&cat, None);
        assert!(w.select(&s, &mut |_, _| {}).is_err());
    }
}
