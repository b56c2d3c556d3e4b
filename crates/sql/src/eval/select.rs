//! `SELECT` evaluation: cartesian products, projection, DISTINCT, and
//! single-group aggregates.

use std::collections::BTreeSet;

use starling_storage::{Row, Value};

use crate::ast::{Aggregate, Expr, FromItem, OrderItem, SelectItem, SelectStmt, TableRef};
use crate::error::SqlError;
use crate::eval::env::{Env, Frame, RowBinding};
use crate::eval::expr::{eval_bool, eval_expr, is_true};

/// The result of a query: output column names and rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultSet {
    /// Output column names (aliases, column names, or `col1`, `col2`, ...).
    pub columns: Vec<String>,
    /// Result rows in deterministic order.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// An empty result with the given columns.
    pub fn empty(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }
}

/// Evaluates a `SELECT` in the given environment (which supplies outer
/// frames for correlated subqueries).
pub fn eval_select(s: &SelectStmt, env: &mut Env<'_>) -> Result<ResultSet, SqlError> {
    // Materialize each from-item's rows up front.
    let sources = materialize_from(&s.from, env)?;

    // Enumerate matching frames (combinations passing WHERE).
    let mut frames: Vec<Frame> = Vec::new();
    enumerate(
        &sources,
        0,
        &mut Vec::new(),
        env,
        s.where_clause.as_ref(),
        &mut frames,
    )?;

    let columns = output_columns(s, env)?;
    let grouped = is_grouped(s);

    let mut rows: Vec<Row> = Vec::new();
    let mut sort_keys: Vec<Vec<Value>> = Vec::new();
    if grouped {
        // Partition the matching frames into groups; with no GROUP BY the
        // whole result is one group (and aggregates over an empty input
        // still yield one row, per SQL).
        let mut groups: std::collections::BTreeMap<Vec<Value>, Vec<Frame>> =
            std::collections::BTreeMap::new();
        if s.group_by.is_empty() {
            groups.insert(Vec::new(), frames);
        } else {
            for frame in frames {
                env.push(frame.clone());
                let key: Result<Vec<Value>, SqlError> =
                    s.group_by.iter().map(|e| eval_expr(e, env)).collect();
                env.pop();
                groups.entry(key?).or_default().push(frame);
            }
        }
        for (key, group) in groups {
            if let Some(h) = &s.having {
                let v = eval_grouped_expr(h, env, &group, &s.group_by, &key)?;
                if !is_true(&v) {
                    continue;
                }
            }
            let mut row = Vec::with_capacity(s.items.len());
            for item in &s.items {
                match item {
                    SelectItem::Wildcard => {
                        return Err(SqlError::eval("cannot use `*` with aggregates or GROUP BY"))
                    }
                    SelectItem::Expr { expr, .. } => {
                        row.push(eval_grouped_expr(expr, env, &group, &s.group_by, &key)?)
                    }
                }
            }
            let k: Result<Vec<Value>, SqlError> = s
                .order_by
                .iter()
                .map(|o| eval_grouped_expr(&o.expr, env, &group, &s.group_by, &key))
                .collect();
            rows.push(row);
            sort_keys.push(k?);
        }
    } else {
        for frame in frames {
            env.push(frame);
            let r = project(s, env);
            let k = eval_sort_keys(&s.order_by, env);
            env.pop();
            rows.push(r?);
            sort_keys.push(k?);
        }
    }

    if s.distinct {
        // DISTINCT applies to the projected output; keep the first
        // occurrence's sort key.
        let mut seen = BTreeSet::new();
        let mut kept_rows = Vec::with_capacity(rows.len());
        let mut kept_keys = Vec::with_capacity(rows.len());
        for (row, key) in rows.into_iter().zip(sort_keys) {
            if seen.contains(&row) {
                continue;
            }
            seen.insert(row.clone());
            kept_rows.push(row);
            kept_keys.push(key);
        }
        rows = kept_rows;
        sort_keys = kept_keys;
    }

    if !s.order_by.is_empty() {
        let mut indexed: Vec<usize> = (0..rows.len()).collect();
        indexed.sort_by(|&a, &b| {
            for (i, item) in s.order_by.iter().enumerate() {
                // The structural total order (NULLs first) stands in for
                // SQL's implementation-defined NULL placement.
                let ord = sort_keys[a][i].cmp(&sort_keys[b][i]);
                let ord = if item.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // Apply the permutation by moving rows out (each index appears
        // exactly once), not by cloning every row.
        rows = indexed
            .into_iter()
            .map(|i| std::mem::take(&mut rows[i]))
            .collect();
    }

    Ok(ResultSet { columns, rows })
}

/// Evaluates the `ORDER BY` keys for the current frame.
fn eval_sort_keys(order_by: &[OrderItem], env: &mut Env<'_>) -> Result<Vec<Value>, SqlError> {
    order_by.iter().map(|o| eval_expr(&o.expr, env)).collect()
}

/// Rows and binding metadata of one from-item.
struct Source {
    name: String,
    table: String,
    rows: Vec<Row>,
}

fn materialize_from(from: &[FromItem], env: &Env<'_>) -> Result<Vec<Source>, SqlError> {
    let mut out = Vec::with_capacity(from.len());
    for item in from {
        let (table, rows) = match &item.table {
            TableRef::Base(t) => {
                let tbl = env.ctx.db.table(t)?;
                (
                    t.clone(),
                    tbl.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
                )
            }
            TableRef::Transition(tt) => {
                let Some(binding) = env.ctx.transitions else {
                    return Err(SqlError::eval(format!(
                        "transition table `{}` referenced outside a rule",
                        tt.name()
                    )));
                };
                (binding.table.clone(), binding.rows(*tt).to_vec())
            }
        };
        out.push(Source {
            name: item.binding().to_owned(),
            table,
            rows,
        });
    }
    Ok(out)
}

/// Depth-first enumeration of the cartesian product, filtering with the
/// `WHERE` clause at the leaves.
fn enumerate(
    sources: &[Source],
    idx: usize,
    partial: &mut Frame,
    env: &mut Env<'_>,
    where_clause: Option<&Expr>,
    out: &mut Vec<Frame>,
) -> Result<(), SqlError> {
    if idx == sources.len() {
        let keep = match where_clause {
            None => true,
            Some(w) => {
                env.push(partial.clone());
                let v = eval_bool(w, env);
                env.pop();
                is_true(&v?)
            }
        };
        if keep {
            out.push(partial.clone());
        }
        return Ok(());
    }
    let src = &sources[idx];
    for row in &src.rows {
        partial.push(RowBinding {
            name: src.name.clone(),
            table: src.table.clone(),
            row: row.clone(),
        });
        enumerate(sources, idx + 1, partial, env, where_clause, out)?;
        partial.pop();
    }
    Ok(())
}

/// Projects the select list against the innermost frame.
fn project(s: &SelectStmt, env: &mut Env<'_>) -> Result<Row, SqlError> {
    let mut row = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => expand_wildcard(env, &mut row)?,
            SelectItem::Expr { expr, .. } => row.push(eval_expr(expr, env)?),
        }
    }
    Ok(row)
}

fn expand_wildcard(env: &mut Env<'_>, row: &mut Row) -> Result<(), SqlError> {
    // The innermost frame holds the from-item bindings in order.
    let bindings: Vec<(String, Row)> = {
        let frame = env
            .innermost()
            .ok_or_else(|| SqlError::eval("`*` with no from clause"))?;
        frame
            .iter()
            .map(|b| (b.table.clone(), b.row.clone()))
            .collect()
    };
    for (_, r) in bindings {
        row.extend(r);
    }
    Ok(())
}

/// Output column names for a select.
fn output_columns(s: &SelectStmt, env: &Env<'_>) -> Result<Vec<String>, SqlError> {
    let mut out = Vec::new();
    for (i, item) in s.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for fi in &s.from {
                    let table = match &fi.table {
                        TableRef::Base(t) => t.clone(),
                        TableRef::Transition(_) => match env.ctx.transitions {
                            Some(b) => b.table.clone(),
                            None => return Err(SqlError::eval("transition table outside a rule")),
                        },
                    };
                    let schema = env.ctx.db.catalog().table(&table)?;
                    out.extend(schema.column_names().map(str::to_owned));
                }
            }
            SelectItem::Expr { expr, alias } => out.push(match alias {
                Some(a) => a.clone(),
                None => match expr {
                    Expr::Column(c) => c.column.clone(),
                    _ => format!("col{}", i + 1),
                },
            }),
        }
    }
    Ok(out)
}

/// Whether a select is *grouped* (an aggregate item, a `GROUP BY` or a
/// `HAVING`): its items, `HAVING` and `ORDER BY` keys run once per group.
pub(crate) fn is_grouped(s: &SelectStmt) -> bool {
    !s.group_by.is_empty()
        || s.having.is_some()
        || s.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            SelectItem::Wildcard => false,
        })
}

/// Whether an expression contains an aggregate call (at this query level;
/// subqueries have their own levels).
pub fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Aggregate { .. } => true,
        Expr::Literal(_) | Expr::Column(_) => false,
        Expr::Binary { lhs, rhs, .. } => contains_aggregate(lhs) || contains_aggregate(rhs),
        Expr::Neg(x) | Expr::Not(x) => contains_aggregate(x),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::InSelect { expr, .. } => contains_aggregate(expr),
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::Exists(_) | Expr::ScalarSubquery(_) => false,
    }
}

/// Evaluates an expression in grouped mode: aggregate nodes are computed
/// over `group` (the group's frames); a subexpression syntactically equal
/// to a `GROUP BY` key evaluates to the group's key value; everything else
/// must be group-invariant (literals and compositions of the above).
fn eval_grouped_expr(
    e: &Expr,
    env: &mut Env<'_>,
    group: &[Frame],
    group_by: &[Expr],
    key: &[Value],
) -> Result<Value, SqlError> {
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Ok(key[i].clone());
    }
    match e {
        Expr::Aggregate { func, arg } => eval_aggregate(*func, arg.as_deref(), env, group),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, lhs, rhs } => {
            // Rebuild a literal expression from the grouped operands so the
            // 3VL machinery in expr.rs applies uniformly.
            let l = eval_grouped_expr(lhs, env, group, group_by, key)?;
            let r = eval_grouped_expr(rhs, env, group, group_by, key)?;
            let synth = Expr::bin(*op, Expr::Literal(l), Expr::Literal(r));
            eval_expr(&synth, env)
        }
        Expr::Neg(x) => {
            let v = eval_grouped_expr(x, env, group, group_by, key)?;
            eval_expr(&Expr::Neg(Box::new(Expr::Literal(v))), env)
        }
        Expr::Not(x) => {
            let v = eval_grouped_expr(x, env, group, group_by, key)?;
            eval_expr(&Expr::Not(Box::new(Expr::Literal(v))), env)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_grouped_expr(expr, env, group, group_by, key)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Column(c) => Err(SqlError::eval(format!(
            "column `{c}` must appear in GROUP BY or inside an aggregate"
        ))),
        _ => Err(SqlError::eval(
            "unsupported expression in a grouped select list",
        )),
    }
}

fn eval_aggregate(
    func: Aggregate,
    arg: Option<&Expr>,
    env: &mut Env<'_>,
    group: &[Frame],
) -> Result<Value, SqlError> {
    if func == Aggregate::CountStar {
        return Ok(Value::Int(group.len() as i64));
    }
    let arg = arg.ok_or_else(|| SqlError::eval("aggregate missing argument"))?;
    let mut values = Vec::new();
    for frame in group {
        env.push(frame.clone());
        let v = eval_expr(arg, env);
        env.pop();
        let v = v?;
        if !v.is_null() {
            values.push(v);
        }
    }
    aggregate(func, &values)
}

/// Folds an aggregate over a group's non-NULL argument values in frame
/// order (`count(*)`: one per row), for the interpreter and plans alike.
pub(crate) fn aggregate(func: Aggregate, values: &[Value]) -> Result<Value, SqlError> {
    match func {
        Aggregate::Count | Aggregate::CountStar => Ok(Value::Int(values.len() as i64)),
        Aggregate::Min => Ok(values
            .iter()
            .try_fold(None::<Value>, |acc, v| sql_extreme(acc, v, true))?
            .unwrap_or(Value::Null)),
        Aggregate::Max => Ok(values
            .iter()
            .try_fold(None::<Value>, |acc, v| sql_extreme(acc, v, false))?
            .unwrap_or(Value::Null)),
        Aggregate::Sum | Aggregate::Avg => {
            if values.is_empty() {
                return Ok(Value::Null);
            }
            let mut all_int = true;
            let mut fsum = 0.0;
            let mut isum: i64 = 0;
            for v in values {
                match v {
                    Value::Int(i) => {
                        isum = isum
                            .checked_add(*i)
                            .ok_or_else(|| SqlError::eval("integer overflow in SUM"))?;
                        fsum += *i as f64;
                    }
                    Value::Float(f) => {
                        all_int = false;
                        fsum += f;
                    }
                    v => {
                        return Err(SqlError::eval(format!(
                            "cannot aggregate non-numeric value {v}"
                        )))
                    }
                }
            }
            if func == Aggregate::Sum {
                Ok(if all_int {
                    Value::Int(isum)
                } else {
                    Value::Float(fsum)
                })
            } else {
                Ok(Value::Float(fsum / values.len() as f64))
            }
        }
    }
}

fn sql_extreme(acc: Option<Value>, v: &Value, want_min: bool) -> Result<Option<Value>, SqlError> {
    match acc {
        None => Ok(Some(v.clone())),
        Some(a) => match a.sql_cmp(v) {
            Some(std::cmp::Ordering::Greater) if want_min => Ok(Some(v.clone())),
            Some(std::cmp::Ordering::Less) if !want_min => Ok(Some(v.clone())),
            Some(_) => Ok(Some(a)),
            None => Err(SqlError::eval("incomparable values in MIN/MAX")),
        },
    }
}

#[cfg(test)]
mod tests {
    use starling_storage::{ColumnDef, Database, TableSchema, ValueType};

    use crate::ast::{Action, Statement, TransitionTable};
    use crate::eval::env::{EvalCtx, TransitionBinding};
    use crate::parser::parse_statement;

    use super::*;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::nullable("b", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for (a, b) in [(1, Some(10)), (2, None), (3, Some(30)), (3, Some(30))] {
            d.insert(
                "t",
                vec![Value::Int(a), b.map(Value::Int).unwrap_or(Value::Null)],
            )
            .unwrap();
        }
        d
    }

    fn query_with(
        d: &Database,
        tb: Option<&TransitionBinding>,
        src: &str,
    ) -> Result<ResultSet, SqlError> {
        let Statement::Dml(Action::Select(s)) = parse_statement(src).unwrap() else {
            panic!()
        };
        let ctx = EvalCtx {
            db: d,
            transitions: tb,
        };
        let mut env = Env::new(&ctx);
        eval_select(&s, &mut env)
    }

    fn query(d: &Database, src: &str) -> ResultSet {
        query_with(d, None, src).unwrap()
    }

    #[test]
    fn simple_projection_and_filter() {
        let d = db();
        let rs = query(&d, "select a from t where b is not null");
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.columns, vec!["a"]);
    }

    #[test]
    fn wildcard() {
        let d = db();
        let rs = query(&d, "select * from t");
        assert_eq!(rs.columns, vec!["a", "b"]);
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn distinct() {
        let d = db();
        let rs = query(&d, "select distinct a from t");
        assert_eq!(rs.rows.len(), 3);
        let rs = query(&d, "select distinct * from t");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn aggregates() {
        let d = db();
        let rs = query(
            &d,
            "select count(*), count(b), sum(a), min(b), max(b), avg(a) from t",
        );
        assert_eq!(
            rs.rows,
            vec![vec![
                Value::Int(4),
                Value::Int(3),
                Value::Int(9),
                Value::Int(10),
                Value::Int(30),
                Value::Float(9.0 / 4.0),
            ]]
        );
    }

    #[test]
    fn aggregate_over_empty_group() {
        let d = db();
        let rs = query(&d, "select count(*), sum(a), min(a) from t where a > 100");
        assert_eq!(rs.rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
    }

    #[test]
    fn aggregate_arithmetic() {
        let d = db();
        let rs = query(&d, "select sum(a) + count(*) from t");
        assert_eq!(rs.rows, vec![vec![Value::Int(13)]]);
    }

    #[test]
    fn mixing_plain_and_aggregate_rejected() {
        let d = db();
        assert!(query_with(&d, None, "select a, count(*) from t").is_err());
        assert!(query_with(&d, None, "select *, count(*) from t").is_err());
    }

    #[test]
    fn cross_product_count() {
        let d = db();
        let rs = query(&d, "select x.a from t x, t y");
        assert_eq!(rs.rows.len(), 16);
    }

    #[test]
    fn select_without_from() {
        let d = db();
        let rs = query(&d, "select 1 + 1, 'x'");
        assert_eq!(rs.rows, vec![vec![Value::Int(2), Value::str("x")]]);
        assert_eq!(rs.columns, vec!["col1", "col2"]);
    }

    #[test]
    fn transition_table_scan() {
        let d = db();
        let mut tb = TransitionBinding::empty("t");
        tb.inserted.push(vec![Value::Int(7), Value::Int(70)]);
        assert_eq!(tb.rows(TransitionTable::Inserted).len(), 1);
        let rs = query_with(&d, Some(&tb), "select a from inserted").unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(7)]]);
        // Without a binding, transition reference fails.
        assert!(query_with(&d, None, "select a from inserted").is_err());
    }

    #[test]
    fn null_where_excludes() {
        let d = db();
        // b > 5 is unknown for the NULL row — excluded.
        let rs = query(&d, "select a from t where b > 5");
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn column_aliases() {
        let d = db();
        let rs = query(&d, "select a as x, b from t where a = 1");
        assert_eq!(rs.columns, vec!["x", "b"]);
    }
}

#[cfg(test)]
mod order_by_tests {
    use starling_storage::{ColumnDef, Database, TableSchema, ValueType};

    use crate::ast::{Action, Statement};
    use crate::eval::env::EvalCtx;
    use crate::parser::parse_statement;

    use super::*;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::nullable("b", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for (a, b) in [(3, Some(30)), (1, Some(10)), (2, None), (1, Some(5))] {
            d.insert(
                "t",
                vec![Value::Int(a), b.map(Value::Int).unwrap_or(Value::Null)],
            )
            .unwrap();
        }
        d
    }

    fn query(d: &Database, src: &str) -> ResultSet {
        let Statement::Dml(Action::Select(s)) = parse_statement(src).unwrap() else {
            panic!()
        };
        let ctx = EvalCtx {
            db: d,
            transitions: None,
        };
        let mut env = Env::new(&ctx);
        eval_select(&s, &mut env).unwrap()
    }

    fn col_a(rs: &ResultSet) -> Vec<i64> {
        rs.rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => -999,
            })
            .collect()
    }

    #[test]
    fn ascending_and_descending() {
        let d = db();
        assert_eq!(
            col_a(&query(&d, "select a from t order by a")),
            vec![1, 1, 2, 3]
        );
        assert_eq!(
            col_a(&query(&d, "select a from t order by a desc")),
            vec![3, 2, 1, 1]
        );
    }

    #[test]
    fn multi_key_with_tiebreak() {
        let d = db();
        let rs = query(&d, "select a, b from t order by a asc, b desc");
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Null],
                vec![Value::Int(3), Value::Int(30)],
            ]
        );
    }

    #[test]
    fn nulls_sort_first_ascending() {
        let d = db();
        let rs = query(&d, "select b from t order by b");
        assert_eq!(rs.rows[0], vec![Value::Null]);
    }

    #[test]
    fn order_by_expression() {
        let d = db();
        // Order by -a = descending a.
        assert_eq!(
            col_a(&query(&d, "select a from t order by 0 - a")),
            vec![3, 2, 1, 1]
        );
    }

    #[test]
    fn distinct_then_order() {
        let d = db();
        assert_eq!(
            col_a(&query(&d, "select distinct a from t order by a desc")),
            vec![3, 2, 1]
        );
    }

    #[test]
    fn order_by_column_not_in_projection() {
        let d = db();
        // b is not projected but still usable as a key.
        let rs = query(&d, "select a from t where b is not null order by b");
        assert_eq!(col_a(&rs), vec![1, 1, 3]);
    }
}

#[cfg(test)]
mod group_by_tests {
    use starling_storage::{ColumnDef, Database, TableSchema, ValueType};

    use crate::ast::{Action, Statement};
    use crate::eval::env::EvalCtx;
    use crate::parser::parse_statement;

    use super::*;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "emp",
                vec![
                    ColumnDef::new("dno", ValueType::Int),
                    ColumnDef::new("sal", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for (dno, sal) in [(1, 100), (1, 200), (2, 300), (2, 100), (3, 50)] {
            d.insert("emp", vec![Value::Int(dno), Value::Int(sal)])
                .unwrap();
        }
        d
    }

    fn try_query(d: &Database, src: &str) -> Result<ResultSet, SqlError> {
        let Statement::Dml(Action::Select(s)) = parse_statement(src).unwrap() else {
            panic!()
        };
        let ctx = EvalCtx {
            db: d,
            transitions: None,
        };
        let mut env = Env::new(&ctx);
        eval_select(&s, &mut env)
    }

    fn query(d: &Database, src: &str) -> ResultSet {
        try_query(d, src).unwrap()
    }

    #[test]
    fn basic_grouping() {
        let d = db();
        let rs = query(
            &d,
            "select dno, sum(sal), count(*) from emp group by dno order by dno",
        );
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(1), Value::Int(300), Value::Int(2)],
                vec![Value::Int(2), Value::Int(400), Value::Int(2)],
                vec![Value::Int(3), Value::Int(50), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn having_filters_groups() {
        let d = db();
        let rs = query(
            &d,
            "select dno from emp group by dno having count(*) > 1 order by dno",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        // HAVING with aggregate comparison against group key arithmetic.
        let rs = query(
            &d,
            "select dno from emp group by dno having sum(sal) > dno * 100 order by dno",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn having_without_group_by() {
        let d = db();
        let rs = query(&d, "select count(*) from emp having count(*) > 100");
        assert!(rs.rows.is_empty());
        let rs = query(&d, "select count(*) from emp having count(*) > 1");
        assert_eq!(rs.rows, vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn group_key_expression() {
        let d = db();
        // Group by a computed bucket.
        let rs = query(
            &d,
            "select sal / 100, count(*) from emp group by sal / 100 order by sal / 100",
        );
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(0), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(3), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn order_by_aggregate() {
        let d = db();
        let rs = query(
            &d,
            "select dno from emp group by dno order by sum(sal) desc",
        );
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(1)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn empty_input_with_group_by_yields_no_rows() {
        let mut d = db();
        // Delete everything first.
        let Statement::Dml(del) = parse_statement("delete from emp").unwrap() else {
            panic!()
        };
        crate::eval::dml::exec_action(&del, &mut d, None).unwrap();
        let rs = query(&d, "select dno, count(*) from emp group by dno");
        assert!(rs.rows.is_empty());
        // ...but a global aggregate still yields one row.
        let rs = query(&d, "select count(*) from emp");
        assert_eq!(rs.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn non_key_column_rejected() {
        let d = db();
        let e = try_query(&d, "select sal from emp group by dno").unwrap_err();
        assert!(e.to_string().contains("GROUP BY"), "{e}");
        let e = try_query(&d, "select *, count(*) from emp").unwrap_err();
        assert!(e.to_string().contains("GROUP BY"), "{e}");
    }

    #[test]
    fn distinct_after_grouping() {
        let d = db();
        // count(*) per dno is [2,2,1]; distinct collapses the two 2s.
        let rs = query(
            &d,
            "select distinct count(*) from emp group by dno order by count(*)",
        );
        assert_eq!(rs.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }
}
