//! A visitor over the expressions of a rule body, and the one-site
//! mutation built on it, for the suites that edit generated rules.

use starling_sql::ast::{Action, Expr, InsertSource, RuleBody, SelectItem, SelectStmt};

/// Calls `f` on every expression of `s`, outer before inner.
fn select_exprs(s: &mut SelectStmt, f: &mut dyn FnMut(&mut Expr)) {
    for item in &mut s.items {
        if let SelectItem::Expr { expr, .. } = item {
            exprs(expr, f);
        }
    }
    let clauses = s.where_clause.iter_mut().chain(&mut s.group_by);
    for e in clauses
        .chain(&mut s.having)
        .chain(s.order_by.iter_mut().map(|o| &mut o.expr))
    {
        exprs(e, f);
    }
}

fn exprs(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    f(e);
    match e {
        Expr::Literal(_) | Expr::Column(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            exprs(lhs, f);
            exprs(rhs, f);
        }
        Expr::Neg(x) | Expr::Not(x) | Expr::IsNull { expr: x, .. } => exprs(x, f),
        Expr::Like { expr, pattern, .. } => {
            exprs(expr, f);
            exprs(pattern, f);
        }
        Expr::InList { expr, list, .. } => {
            exprs(expr, f);
            list.iter_mut().for_each(|x| exprs(x, f));
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            exprs(expr, f);
            exprs(low, f);
            exprs(high, f);
        }
        Expr::InSelect { expr, select, .. } => {
            exprs(expr, f);
            select_exprs(select, f);
        }
        Expr::Exists(s) | Expr::ScalarSubquery(s) => select_exprs(s, f),
        Expr::Aggregate { arg, .. } => {
            if let Some(x) = arg {
                exprs(x, f);
            }
        }
    }
}

/// Calls `f` on every expression of `def`'s condition and actions.
fn rule_exprs(def: &mut RuleBody, f: &mut dyn FnMut(&mut Expr)) {
    if let Some(c) = &mut def.condition {
        exprs(c, f);
    }
    for a in &mut def.actions {
        match a {
            Action::Insert(i) => match &mut i.source {
                InsertSource::Values(rows) => rows.iter_mut().flatten().for_each(|e| exprs(e, f)),
                InsertSource::Select(s) => select_exprs(s, f),
            },
            Action::Update(u) => {
                for (_, e) in &mut u.sets {
                    exprs(e, f);
                }
                if let Some(w) = &mut u.where_clause {
                    exprs(w, f);
                }
            }
            Action::Delete(d) => {
                if let Some(w) = &mut d.where_clause {
                    exprs(w, f);
                }
            }
            Action::Select(s) => select_exprs(s, f),
            Action::Rollback => {}
        }
    }
}

/// Applies `mutate` to the `k % n`-th of the `n` expressions `pick`
/// selects in `def`; false when there are none.
pub fn mutate_nth(
    def: &mut RuleBody,
    k: usize,
    pick: fn(&Expr) -> bool,
    mutate: &mut dyn FnMut(&mut Expr),
) -> bool {
    let mut n = 0;
    rule_exprs(def, &mut |e| n += usize::from(pick(e)));
    if n == 0 {
        return false;
    }
    let mut i = 0;
    rule_exprs(def, &mut |e| {
        if pick(e) {
            if i == k % n {
                mutate(e);
            }
            i += 1;
        }
    });
    true
}
