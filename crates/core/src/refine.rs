//! Predicate-level commutativity refinement — the paper's Section 9 "less
//! conservative methods" extension, implementing the two examples given
//! right after Lemma 6.1:
//!
//! 1. *"r_i inserts into a table t and r_j deletes from t, but the tuples
//!    inserted by r_i never satisfy the delete condition of r_j"* — when
//!    `r_i` inserts constant rows and `r_j`'s predicate is simple (no
//!    subqueries), we evaluate the predicate on each inserted row; if none
//!    satisfies it, condition 4 is discharged.
//! 2. *"r_i and r_j update the same table but never the same tuples"* —
//!    when both `WHERE` clauses constrain a common column to provably
//!    disjoint constant ranges, condition 5 (and the update/delete half of
//!    condition 4) is discharged.
//!
//! The refinement reads the typed conditions Lemma 6.1's one body
//! ([`crate::commutativity`]) yields for each direction, with that
//! direction's writer and reader bodies, and only ever *discharges* a
//! condition when disjointness is proven; anything it cannot analyze is
//! kept — so it stays conservative, just less so. It changes verdicts
//! only: a report shows the raw conditions. It is off by default
//! ([`AnalysisContext::refine`]); the paper-exact conditions remain the
//! baseline.
//!
//! Soundness of the discharges is oracle-tested in
//! `tests/refinement_oracle.rs`.

use std::ops::ControlFlow;

use starling_sql::ast::{Action, BinOp, Expr, InsertSource, RuleBody};
use starling_sql::eval::{Env, EvalCtx};
use starling_storage::{Catalog, Database, Op, Row, Value};

use crate::commutativity::{directed_conditions, Fired};
use crate::context::AnalysisContext;

/// Whether the refinement discharges every Lemma 6.1 condition that fires
/// for the rule pair `(i, j)`, in both directions: the refined verdict
/// "commutes". Stops at the first condition it cannot discharge.
pub(crate) fn discharges_all(ctx: &AnalysisContext, i: usize, j: usize) -> bool {
    [(i, j), (j, i)].into_iter().all(|(w, r)| {
        let (writer, reader) = (ctx.rule_body(w), ctx.rule_body(r));
        directed_conditions(&ctx.sigs[w], &ctx.sigs[r], true, &mut |fired| {
            if discharged(fired, writer, reader, &ctx.catalog) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
        .is_continue()
    })
}

/// Whether one condition, fired in the direction `writer`-affects-`reader`,
/// is provably spurious for the pair.
fn discharged(fired: Fired<'_>, writer: &RuleBody, reader: &RuleBody, catalog: &Catalog) -> bool {
    match fired {
        Fired::UpdateUpdate(c) => updates_disjoint(writer, reader, &c.table, &c.column),
        Fired::InsertWrite(table) => inserts_never_selected(writer, reader, table, catalog),
        // Condition 3 with an insert on the writer's side: dischargeable
        // when the reader's ONLY reads of that table are the write
        // predicates already proven to miss every inserted row (the
        // paper's example 1 needs this — the delete's WHERE clause is
        // itself a read).
        Fired::WriteRead(Op::Insert(table)) => {
            reads_only_in_write_predicates(reader, table)
                && inserts_never_selected(writer, reader, table, catalog)
        }
        // Condition 3 with an update on the writer's side (the disjoint-
        // shards pattern): the reader's only contact with the table is its
        // own simple write predicates, and every writer-action/reader-
        // action predicate pair is provably disjoint — so the writer's
        // updates land on rows the reader never selects, and the reader's
        // predicate evaluation on the writer's rows is fixed by the
        // disjointness column, not the written one.
        Fired::WriteRead(Op::Update(c)) => {
            let (table, col) = (c.table.as_str(), c.column.as_str());
            if !reads_only_in_write_predicates(reader, table) {
                return false;
            }
            let writer_preds: Vec<&Option<Expr>> = writer
                .actions
                .iter()
                .filter_map(|act| match act {
                    Action::Update(u)
                        if u.table == table && u.sets.iter().any(|(c, _)| c == col) =>
                    {
                        Some(&u.where_clause)
                    }
                    _ => None,
                })
                .collect();
            let reader_preds: Vec<&Option<Expr>> = reader
                .actions
                .iter()
                .filter_map(|act| match act {
                    Action::Update(u) if u.table == table => Some(&u.where_clause),
                    Action::Delete(d) if d.table == table => Some(&d.where_clause),
                    _ => None,
                })
                .collect();
            if writer_preds.is_empty() || reader_preds.is_empty() {
                return false;
            }
            writer_preds.iter().all(|wp| {
                reader_preds.iter().all(|rp| match (wp, rp) {
                    (Some(x), Some(y)) => predicates_disjoint(x, y),
                    _ => false,
                })
            })
        }
        _ => false,
    }
}

/// Whether every reference `def` makes to `table` occurs inside the
/// `WHERE`/`SET` clauses of its own delete/update actions on `table`
/// (which [`inserts_never_selected`] separately proves miss the inserted
/// rows, and which cannot read other tables because they must be simple).
fn reads_only_in_write_predicates(def: &RuleBody, table: &str) -> bool {
    if let Some(cond) = &def.condition {
        if expr_mentions_table(cond, table) {
            return false;
        }
    }
    for act in &def.actions {
        match act {
            Action::Select(s) => {
                if select_mentions_table(s, table) {
                    return false;
                }
            }
            Action::Insert(stmt) => match &stmt.source {
                InsertSource::Select(s) => {
                    if select_mentions_table(s, table) {
                        return false;
                    }
                }
                InsertSource::Values(rows) => {
                    if rows.iter().flatten().any(|e| expr_mentions_table(e, table)) {
                        return false;
                    }
                }
            },
            Action::Delete(d) => {
                if d.table == table {
                    // Allowed only when the predicate is simple (checked by
                    // inserts_never_selected); a non-simple predicate could
                    // smuggle reads of `table` through subqueries.
                    if d.where_clause
                        .as_ref()
                        .is_some_and(|w| !is_simple_predicate(w))
                    {
                        return false;
                    }
                } else if d
                    .where_clause
                    .as_ref()
                    .is_some_and(|w| expr_mentions_table(w, table))
                {
                    return false;
                }
            }
            Action::Update(u) => {
                if u.table == table {
                    let simple = u.where_clause.as_ref().is_none_or(is_simple_predicate)
                        && u.sets.iter().all(|(_, e)| is_simple_predicate(e));
                    if !simple {
                        return false;
                    }
                } else {
                    let mentions = u
                        .where_clause
                        .as_ref()
                        .is_some_and(|w| expr_mentions_table(w, table))
                        || u.sets.iter().any(|(_, e)| expr_mentions_table(e, table));
                    if mentions {
                        return false;
                    }
                }
            }
            Action::Rollback => {}
        }
    }
    true
}

/// Whether an expression can reference `table`: through a subquery's `FROM`
/// or a qualified column. (An *unqualified* column can only reach `table`
/// through an enclosing `FROM` binding, which this walk also sees.)
fn expr_mentions_table(e: &Expr, table: &str) -> bool {
    match e {
        Expr::Literal(_) => false,
        Expr::Column(c) => c.qualifier.as_deref() == Some(table),
        Expr::Binary { lhs, rhs, .. } => {
            expr_mentions_table(lhs, table) || expr_mentions_table(rhs, table)
        }
        Expr::Neg(x) | Expr::Not(x) => expr_mentions_table(x, table),
        Expr::IsNull { expr, .. } => expr_mentions_table(expr, table),
        Expr::InList { expr, list, .. } => {
            expr_mentions_table(expr, table) || list.iter().any(|x| expr_mentions_table(x, table))
        }
        Expr::InSelect { expr, select, .. } => {
            expr_mentions_table(expr, table) || select_mentions_table(select, table)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            expr_mentions_table(expr, table)
                || expr_mentions_table(low, table)
                || expr_mentions_table(high, table)
        }
        Expr::Like { expr, pattern, .. } => {
            expr_mentions_table(expr, table) || expr_mentions_table(pattern, table)
        }
        Expr::Exists(s) | Expr::ScalarSubquery(s) => select_mentions_table(s, table),
        Expr::Aggregate { arg, .. } => arg.as_ref().is_some_and(|x| expr_mentions_table(x, table)),
    }
}

fn select_mentions_table(s: &starling_sql::ast::SelectStmt, table: &str) -> bool {
    use starling_sql::ast::{SelectItem, TableRef};
    if s.from.iter().any(|fi| match &fi.table {
        TableRef::Base(t) => t == table,
        TableRef::Transition(_) => false,
    }) {
        return true;
    }
    let item_hit = s.items.iter().any(|i| match i {
        SelectItem::Wildcard => false,
        SelectItem::Expr { expr, .. } => expr_mentions_table(expr, table),
    });
    item_hit
        || s.where_clause
            .as_ref()
            .is_some_and(|w| expr_mentions_table(w, table))
        || s.group_by.iter().any(|e| expr_mentions_table(e, table))
        || s.having
            .as_ref()
            .is_some_and(|h| expr_mentions_table(h, table))
        || s.order_by
            .iter()
            .any(|o| expr_mentions_table(&o.expr, table))
}

/// Example 2: every pair of update actions on `table` touching `col` must
/// have provably disjoint `WHERE` target sets.
fn updates_disjoint(a: &RuleBody, b: &RuleBody, table: &str, col: &str) -> bool {
    let relevant = |def: &RuleBody| -> Vec<(Option<Expr>, bool)> {
        def.actions
            .iter()
            .filter_map(|act| match act {
                Action::Update(u) if u.table == table && u.sets.iter().any(|(c, _)| c == col) => {
                    Some((u.where_clause.clone(), true))
                }
                _ => None,
            })
            .collect()
    };
    let ua = relevant(a);
    let ub = relevant(b);
    if ua.is_empty() || ub.is_empty() {
        // The condition came from somewhere we cannot see; keep it.
        return false;
    }
    ua.iter().all(|(wa, _)| {
        ub.iter().all(|(wb, _)| match (wa, wb) {
            (Some(x), Some(y)) => predicates_disjoint(x, y),
            _ => false, // an unguarded update touches everything
        })
    })
}

/// Example 1: every constant row inserted by `ins` must fail the predicate
/// of every delete/update action of `w` on `table`.
fn inserts_never_selected(ins: &RuleBody, w: &RuleBody, table: &str, catalog: &Catalog) -> bool {
    let Ok(schema) = catalog.table(table) else {
        return false;
    };
    // Collect the constant rows `ins` puts into `table`; bail out on
    // non-constant sources.
    let mut rows: Vec<Row> = Vec::new();
    let mut saw_insert = false;
    for act in &ins.actions {
        let Action::Insert(stmt) = act else { continue };
        if stmt.table != table {
            continue;
        }
        saw_insert = true;
        let InsertSource::Values(tuples) = &stmt.source else {
            return false; // INSERT ... SELECT: not constant
        };
        for tuple in tuples {
            let mut row = vec![Value::Null; schema.arity()];
            let indices: Vec<usize> = match &stmt.columns {
                None => (0..schema.arity()).collect(),
                Some(cols) => match cols
                    .iter()
                    .map(|c| schema.column_index(c))
                    .collect::<Option<Vec<_>>>()
                {
                    Some(ix) => ix,
                    None => return false,
                },
            };
            if indices.len() != tuple.len() {
                return false;
            }
            for (idx, e) in indices.iter().zip(tuple) {
                match const_value(e) {
                    Some(v) => row[*idx] = v,
                    None => return false,
                }
            }
            rows.push(row);
        }
    }
    if !saw_insert || rows.is_empty() {
        return false;
    }

    // Every write action of `w` on `table` must provably miss every row.
    let mut saw_write = false;
    for act in &w.actions {
        let wc = match act {
            Action::Delete(d) if d.table == table => &d.where_clause,
            Action::Update(u) if u.table == table => &u.where_clause,
            _ => continue,
        };
        saw_write = true;
        let Some(pred) = wc else {
            return false; // unguarded write touches the inserted rows
        };
        if !is_simple_predicate(pred) {
            return false;
        }
        for row in &rows {
            if !row_fails_predicate(pred, table, row, schema, catalog) {
                return false;
            }
        }
    }
    saw_write
}

/// A literal, possibly negated.
fn const_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Neg(inner) => match const_value(inner)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether the predicate only involves the row's own columns, literals,
/// and pure operators — i.e. can be evaluated on a candidate row without a
/// database state.
fn is_simple_predicate(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Column(_) => true,
        Expr::Binary { lhs, rhs, .. } => is_simple_predicate(lhs) && is_simple_predicate(rhs),
        Expr::Neg(x) | Expr::Not(x) => is_simple_predicate(x),
        Expr::IsNull { expr, .. } => is_simple_predicate(expr),
        Expr::InList { expr, list, .. } => {
            is_simple_predicate(expr) && list.iter().all(is_simple_predicate)
        }
        Expr::Between {
            expr, low, high, ..
        } => is_simple_predicate(expr) && is_simple_predicate(low) && is_simple_predicate(high),
        Expr::Like { expr, pattern, .. } => {
            is_simple_predicate(expr) && is_simple_predicate(pattern)
        }
        Expr::Exists(_)
        | Expr::ScalarSubquery(_)
        | Expr::InSelect { .. }
        | Expr::Aggregate { .. } => false,
    }
}

/// Evaluates a simple predicate against one candidate row; `true` means the
/// row provably does NOT satisfy it (evaluates to false or unknown).
fn row_fails_predicate(
    pred: &Expr,
    table: &str,
    row: &Row,
    schema: &starling_storage::TableSchema,
    catalog: &Catalog,
) -> bool {
    // A scratch database supplies the catalog for column resolution; the
    // predicate is simple, so no table contents are consulted.
    let mut db = Database::new();
    let _ = db.create_table(schema.clone());
    let _ = catalog; // catalog only needed to have produced `schema`
    let ctx = EvalCtx {
        db: &db,
        transitions: None,
    };
    let mut env = Env::new(&ctx);
    env.push(vec![starling_sql::eval::env::RowBinding {
        name: table.to_owned(),
        table: table.to_owned(),
        row: row.clone(),
    }]);
    match starling_sql::eval::expr::eval_bool(pred, &mut env) {
        Ok(v) => !starling_sql::eval::expr::is_true(&v),
        Err(_) => false, // evaluation failure: keep the reason
    }
}

// ---------------------------------------------------------------------
// Interval-based disjointness of simple predicates (example 2).
// ---------------------------------------------------------------------

/// A closed/open interval over [`Value`]s under SQL comparison.
#[derive(Clone, Debug)]
struct Interval {
    lo: Option<(Value, bool)>, // (bound, inclusive)
    hi: Option<(Value, bool)>,
}

impl Interval {
    fn full() -> Self {
        Interval { lo: None, hi: None }
    }

    fn point(v: Value) -> Self {
        Interval {
            lo: Some((v.clone(), true)),
            hi: Some((v, true)),
        }
    }

    fn tighten_lo(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.lo {
            None => true,
            Some((cur, cur_inc)) => match v.sql_cmp(cur) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Equal) => *cur_inc && !inclusive,
                _ => false,
            },
        };
        if replace {
            self.lo = Some((v, inclusive));
        }
    }

    fn tighten_hi(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.hi {
            None => true,
            Some((cur, cur_inc)) => match v.sql_cmp(cur) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Equal) => *cur_inc && !inclusive,
                _ => false,
            },
        };
        if replace {
            self.hi = Some((v, inclusive));
        }
    }

    /// Whether two intervals cannot share a point.
    fn disjoint(&self, other: &Interval) -> bool {
        fn above(hi: &Option<(Value, bool)>, lo: &Option<(Value, bool)>) -> bool {
            // True when `hi < lo` (no overlap on that side).
            match (hi, lo) {
                (Some((h, hi_inc)), Some((l, lo_inc))) => match h.sql_cmp(l) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Equal) => !(*hi_inc && *lo_inc),
                    _ => false,
                },
                _ => false,
            }
        }
        above(&self.hi, &other.lo) || above(&other.hi, &self.lo)
    }
}

/// Extracts per-column intervals from a conjunction of `col op literal`
/// comparisons (either operand order). Returns `None` for anything else —
/// no proof attempted.
fn extract_intervals(e: &Expr) -> Option<Vec<(String, Interval)>> {
    let mut out: Vec<(String, Interval)> = Vec::new();
    collect_conjuncts(e, &mut out)?;
    Some(out)
}

fn collect_conjuncts(e: &Expr, out: &mut Vec<(String, Interval)>) -> Option<()> {
    match e {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            collect_conjuncts(lhs, out)?;
            collect_conjuncts(rhs, out)
        }
        Expr::Binary { op, lhs, rhs } => {
            let (col, lit, op) = match (&**lhs, &**rhs) {
                (Expr::Column(c), Expr::Literal(v)) => (c.column.clone(), v.clone(), *op),
                (Expr::Literal(v), Expr::Column(c)) => (c.column.clone(), v.clone(), mirror(*op)?),
                _ => return None,
            };
            let slot = match out.iter_mut().find(|(name, _)| *name == col) {
                Some((_, iv)) => iv,
                None => {
                    out.push((col, Interval::full()));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            match op {
                BinOp::Eq => {
                    let p = Interval::point(lit);
                    if let Some((v, inc)) = p.lo.clone() {
                        slot.tighten_lo(v, inc);
                    }
                    if let Some((v, inc)) = p.hi.clone() {
                        slot.tighten_hi(v, inc);
                    }
                }
                BinOp::Lt => slot.tighten_hi(lit, false),
                BinOp::Le => slot.tighten_hi(lit, true),
                BinOp::Gt => slot.tighten_lo(lit, false),
                BinOp::Ge => slot.tighten_lo(lit, true),
                _ => return None, // <>, arithmetic: no interval form
            }
            Some(())
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let (Expr::Column(c), Expr::Literal(lo), Expr::Literal(hi)) =
                (&**expr, &**low, &**high)
            else {
                return None;
            };
            let col = c.column.clone();
            let slot = match out.iter_mut().find(|(name, _)| *name == col) {
                Some((_, iv)) => iv,
                None => {
                    out.push((col, Interval::full()));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            slot.tighten_lo(lo.clone(), true);
            slot.tighten_hi(hi.clone(), true);
            Some(())
        }
        _ => None,
    }
}

fn mirror(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Whether two predicates provably select disjoint tuple sets: both are
/// conjunctions of column-vs-literal comparisons, and some common column's
/// intervals are disjoint.
pub fn predicates_disjoint(a: &Expr, b: &Expr) -> bool {
    let (Some(ia), Some(ib)) = (extract_intervals(a), extract_intervals(b)) else {
        return false;
    };
    for (ca, iva) in &ia {
        for (cb, ivb) in &ib {
            if ca == cb && iva.disjoint(ivb) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use starling_sql::parse_expr;

    use super::*;

    fn disjoint(a: &str, b: &str) -> bool {
        predicates_disjoint(&parse_expr(a).unwrap(), &parse_expr(b).unwrap())
    }

    #[test]
    fn equality_constants() {
        assert!(disjoint("k = 1", "k = 2"));
        assert!(!disjoint("k = 1", "k = 1"));
        assert!(disjoint("1 = k", "k = 2"));
        assert!(!disjoint("k = 1", "j = 2")); // different columns
    }

    #[test]
    fn ranges() {
        assert!(disjoint("k < 5", "k > 7"));
        assert!(disjoint("k <= 5", "k > 5"));
        assert!(!disjoint("k <= 5", "k >= 5")); // both include 5
        assert!(disjoint("k between 1 and 3", "k between 4 and 9"));
        assert!(!disjoint("k between 1 and 5", "k between 4 and 9"));
        assert!(disjoint("k > 10", "5 > k"));
    }

    #[test]
    fn conjunctions() {
        assert!(disjoint("k > 0 and k < 3", "k >= 3 and k < 9"));
        assert!(disjoint("a = 1 and k < 3", "k > 4"));
        assert!(!disjoint("a = 1 and k < 3", "k < 2"));
    }

    #[test]
    fn unanalyzable_forms_are_not_disjoint() {
        assert!(!disjoint("k <> 1", "k <> 2"));
        assert!(!disjoint("k = j", "k = 2"));
        assert!(!disjoint("k + 1 = 2", "k = 5"));
        assert!(!disjoint("k = 1 or k = 2", "k = 3"));
    }

    #[test]
    fn string_constants() {
        assert!(disjoint("name = 'a'", "name = 'b'"));
        assert!(!disjoint("name = 'a'", "name = 'a'"));
    }
}
