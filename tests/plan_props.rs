//! Differential tests: compiled plans ≡ the interpreter.
//!
//! The plan layer (`starling::sql::plan`) is a performance path only — the
//! AST interpreter stays the semantic oracle. These tests enforce the
//! contract on three levels:
//!
//! 1. **Statements** — hand-written SQL covering NULL/3VL edge cases,
//!    joins, subqueries, DISTINCT/ORDER BY, grouping and aggregates, and
//!    error paths (division by zero, multi-row scalar subqueries, an
//!    aggregate over strings), plus seeded-random SELECTs (grouped ones
//!    included) and DML over a mixed-type fixture. Compiled execution must
//!    produce the same result set / effects / final state, or fail with
//!    the interpreter's error. The compiler may refuse only a statement the
//!    validator refuses.
//! 2. **Rule conditions** — every corpus, case-study and
//!    `scripts/salary_rules.rql` rule condition, compiled and evaluated
//!    against transition bindings.
//! 3. **Execution graphs** — full oracle exploration with
//!    `EvalMode::Columnar` and `EvalMode::Plan` vs `EvalMode::Interp` must
//!    yield identical graphs (the mode is an explicit per-exploration
//!    parameter, so all paths run in one process without any global
//!    switch) — the user transition included, which runs under the
//!    exploration's mode like every rule action.
//! 4. **User statements** — seeded-random scripts through
//!    `Session::execute_script` on a `Columnar`, a `Plan` and an `Interp`
//!    session over one multi-chunk database: same outputs, same pending
//!    transition, same committed state; a failing script fails in all three
//!    and leaves all three at the snapshot. (That an `Interp` session runs
//!    no plan code is shown as an allocation count by `tests/stmt_alloc.rs`.)
//!    The same three modes explore one user transition, and replay each of
//!    its final states through `replay_rule_sequence` — the primitive
//!    `witness::verify` runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use starling::analysis::loader::{load_script, LoadedScript};
use starling::engine::exec_graph::apply_user_actions;
use starling::engine::{
    explore_with_mode, replay_rule_sequence, EvalMode, ExecGraph, ExecState, ExploreConfig,
    FirstEligible, Outcome, RuleId, RuleSet, Session, TruncationReason,
};
use starling::sql::ast::{
    Action, Aggregate, BinOp, ColumnRef, Expr, FromItem, InsertSource, InsertStmt, OrderItem,
    SelectItem, SelectStmt, Statement, TableRef, UpdateStmt,
};
use starling::sql::eval::expr::eval_bool;
use starling::sql::eval::{eval_select, exec_action, Env, EvalCtx, TransitionBinding};
use starling::sql::plan::{
    compile_action, compile_condition, compile_select, eval_condition, execute_action,
    execute_select, PlanMode,
};
use starling::sql::validate::validate_dml;
use starling::sql::{parse_expr, parse_statement, SqlError};
use starling::storage::{Catalog, ColumnDef, Database, TableSchema, Value, ValueType};
use starling::workloads::cond_stress::CondStress;
use starling::workloads::{audit, constraints, corpus, power_network, versioning, CorpusEntry};
use starling_fuzz::{generate, FuzzCase, GenConfig};

/// Fixture: three tables with nullable columns, NULLs, duplicate values
/// (for DISTINCT), zeros (for division errors), and LIKE-able strings.
fn fixture() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::nullable("b", ValueType::Int),
                ColumnDef::nullable("s", ValueType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "u",
            vec![
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::nullable("b", ValueType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(TableSchema::new("v", vec![ColumnDef::new("a", ValueType::Int)]).unwrap())
        .unwrap();

    let s = |x: &str| Value::Str(x.to_owned());
    let rows_t = [
        (0, Value::Null, s("abc")),
        (1, Value::Int(1), s("a%c")),
        (2, Value::Int(2), Value::Null),
        (3, Value::Int(5), s("xyz")),
        (0, Value::Int(7), s("ab")),
    ];
    for (a, b, sv) in rows_t {
        db.insert("t", vec![Value::Int(a), b, sv]).unwrap();
    }
    let rows_u = [
        (1, Value::Int(1)),
        (2, Value::Null),
        (3, Value::Int(0)),
        (1, Value::Int(4)),
    ];
    for (a, b) in rows_u {
        db.insert("u", vec![Value::Int(a), b]).unwrap();
    }
    for a in [0, 2, 9] {
        db.insert("v", vec![Value::Int(a)]).unwrap();
    }
    db
}

fn parsed_select(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Dml(Action::Select(s)) => s,
        other => panic!("not a select: {sql} -> {other:?}"),
    }
}

fn parsed_action(sql: &str) -> Action {
    match parse_statement(sql).unwrap() {
        Statement::Dml(a) => a,
        other => panic!("not DML: {sql} -> {other:?}"),
    }
}

/// The compiler is total on validated statements and refuses only what the
/// validator refuses: a compile error must be a statement `validate_dml`
/// rejects too (the interpreter, which keeps its own runtime checks, may
/// still run it on data where the fault never shows).
fn compiled<T>(plan: Result<T, SqlError>, stmt: &Action, db: &Database, what: &str) -> Option<T> {
    let valid = validate_dml(stmt, db.catalog());
    match plan {
        Ok(plan) => Some(plan),
        Err(e) => {
            assert!(valid.is_err(), "{what}: validated, yet refused: {e}");
            None
        }
    }
}

/// Asserts the plan/interpreter contract for one SELECT: identical result
/// sets, or both fail.
fn assert_select_agrees(s: &SelectStmt, db: &Database, what: &str) {
    let ctx = EvalCtx {
        db,
        transitions: None,
    };
    let mut env = Env::new(&ctx);
    let interp = eval_select(s, &mut env);
    let stmt = Action::Select(s.clone());
    let Some((plan, slots)) = compiled(compile_select(s, db.catalog(), None), &stmt, db, what)
    else {
        return;
    };
    for mode in [PlanMode::Row, PlanMode::Columnar] {
        let planned = execute_select(&plan, slots, db, None, mode);
        match (&interp, planned) {
            (Ok(a), Ok(b)) => assert_eq!(*a, b, "{what} [{mode:?}]: results diverge"),
            (Err(a), Err(b)) => assert_eq!(a, &b, "{what} [{mode:?}]: errors diverge"),
            (a, b) => panic!("{what} [{mode:?}]: interp {a:?} vs plan {b:?}"),
        }
    }
}

/// Asserts the contract for one action: identical outcome and final state,
/// or both fail with identical final state (partial-apply semantics
/// included).
fn assert_action_agrees(a: &Action, db: &Database, what: &str) {
    let mut db_interp = db.clone();
    let interp = exec_action(a, &mut db_interp, None);
    let Some(plan) = compiled(compile_action(a, db.catalog(), None), a, db, what) else {
        return;
    };
    for mode in [PlanMode::Row, PlanMode::Columnar] {
        let mut db_plan = db.clone();
        let planned = execute_action(&plan, &mut db_plan, None, mode);
        match (&interp, planned) {
            (Ok(x), Ok(y)) => assert_eq!(*x, y, "{what} [{mode:?}]: outcomes diverge"),
            (Err(a), Err(b)) => assert_eq!(a, &b, "{what} [{mode:?}]: errors diverge"),
            (x, y) => panic!("{what} [{mode:?}]: interp {x:?} vs plan {y:?}"),
        }
        assert_eq!(
            db_interp.state_digest(),
            db_plan.state_digest(),
            "{what} [{mode:?}]: final states diverge"
        );
    }
}

#[test]
fn curated_selects_agree() {
    let db = fixture();
    let cases = [
        // Scans, pushdown, DISTINCT, ORDER BY.
        "select * from t",
        "select distinct a from t order by a desc",
        "select a, b from t where b > 1",
        "select a from t where a = 1 and b = 1",
        "select distinct a, b from t order by b desc, a",
        "select a + 1, b * 2 from t order by a",
        // Equality joins (hash path) and cross products.
        "select t.a, u.b from t, u where t.a = u.a",
        "select * from t, u where t.a = u.a and u.b > 0 order by t.a desc, u.b",
        "select t.a, v.a from t, v",
        "select x.a, y.a from t x, t y where x.a = y.a and x.b < y.b",
        // Subqueries: EXISTS, IN, scalar; correlated and not.
        "select a from t where exists (select * from u where u.a = t.a)",
        "select a from t where exists (select * from v where a > 100)",
        "select a from t where a in (select a from u)",
        "select a from t where a not in (select b from u)",
        "select a from t where a in (select a from u where u.b = t.b)",
        "select a from t where a > (select a from v where a > 100)",
        "select a from t where a = (select a from v)",
        "select (select a from v where a = 9) from t",
        // 3VL and NULL propagation.
        "select a from t where b is null",
        "select a from t where b is not null",
        "select a from t where b in (1, 3)",
        "select a from t where b not in (1, 3)",
        "select a from t where b between 1 and 5",
        "select a from t where b not between 1 and 5",
        "select a from t where not (a > 1)",
        "select a from t where b > 1 or s like 'a%'",
        // LIKE (including NULL operands via column s).
        "select s from t where s like 'a%'",
        "select s from t where s like 'a_c'",
        "select s from t where s not like '%b%'",
        // Constant folding and error paths.
        "select 1 + 2 * 3 from t",
        "select 10 / 0 from t",
        "select a / (a - a) from t",
        "select a from t where a > 1 and 10 / 0 > 1",
        "select -a from t",
        // Aggregates and grouping.
        "select count(*) from t",
        "select a, count(*) from t group by a order by a",
        "select sum(b), min(s) from t",
        "select a from t group by a having count(*) > 1",
        "select a, max(b) from t group by a order by max(b) desc",
        "select count(*) from t order by count(*)",
        "select distinct count(*) from t group by a order by count(*)",
        "select a / 2, sum(b) - count(*) from t group by a / 2 order by a / 2 desc",
        // NULL group keys.
        "select b, count(*) from t group by b order by b",
        "select s, count(*), min(a) from t group by s",
        // Empty input: one group without GROUP BY, none with it.
        "select count(*), sum(a), max(s), avg(b) from t where a > 100",
        "select a, count(*) from t where a > 100 group by a",
        "select count(*) from t where a > 100 having count(*) = 0",
        // SUM and AVG over all-NULL input; COUNT(c) beside COUNT(*).
        "select sum(b), avg(b), count(b), count(*) from u where b is null",
        "select count(b), count(*), count(s) from t",
        // MIN and MAX over strings.
        "select min(s), max(s) from t",
        "select a, max(s), min(s) from t group by a order by a",
        // Errors: a SUM over strings fails only in a group HAVING keeps,
        // and every operand of a grouped AND is evaluated.
        "select sum(s) from t group by s is null having s is null",
        "select sum(s) from t group by s is null",
        "select count(*) from t group by a having false and sum(s) > 0",
        "select count(*) from t having count(*) = 0 and 1 / 0 > 1",
        "select a / 0, count(*) from t group by a / 0",
        // The interpreter enumerates every row before it computes a key,
        // and evaluates every argument of a group before it folds them.
        "select count(*) from t where 10 / (a - 3) > -100 group by s + 1",
        "select sum((select s from t x where x.b < t.a)) from t",
        // Correlated and nested aggregate subqueries.
        "select a, (select sum(b) from u where u.a = t.a) from t order by a",
        "select a from t where (select count(*) from u where u.a = t.a) > 1",
        "select a from t where exists (select count(*) from u where u.a = t.a)",
        "select a from t where a in (select a from u group by a having count(*) > 1)",
        "select sum((select max(a) from v where v.a > t.a)) from t",
        // Misplaced grouped operands: refused before they run.
        "select a, count(*) from t",
        "select * from t group by a",
        "select count(*) between 1 and 9 from t",
        // No FROM clause.
        "select 1 + 1",
        // Transition table outside a rule: both must fail.
        "select * from inserted",
    ];
    for sql in cases {
        assert_select_agrees(&parsed_select(sql), &db, sql);
    }
}

#[test]
fn curated_actions_agree() {
    let db = fixture();
    let cases = [
        "insert into t values (7, 8, 'new')",
        "insert into t values (7, null, null), (8, 0, 'q')",
        "insert into t (b, a) values (5, 6)",
        "insert into v select a from u where b > 0",
        "insert into u select a, b from t where a in (select a from v)",
        "insert into v values (10 / 0)",
        "insert into v select a / (a - 2) from t",
        "delete from v",
        "delete from t where b is null",
        "delete from t where a in (select a from u where b > 0)",
        "delete from u where 10 / b > 2",
        "update t set b = b + 1 where a > 0",
        "update t set a = 0, b = a where b is not null",
        "update u set b = 10 / (a - 1)",
        "update t set b = (select a from v where a > 5) where a = 1",
        "select a from t where b > 2",
        "insert into v select count(*) from t",
        "insert into u select a, sum(b) from t group by a",
        "update t set b = (select max(b) from u where u.a = t.a)",
        "update u set b = (select sum(s) from t where t.a = u.a)",
        "delete from v where a < (select avg(a) from t)",
        "rollback",
    ];
    for sql in cases {
        assert_action_agrees(&parsed_action(sql), &db, sql);
    }
}

// ---------------------------------------------------------------------------
// Seeded random statement generation.
// ---------------------------------------------------------------------------

const TABLES: [(&str, &[&str]); 3] = [("t", &["a", "b", "s"]), ("u", &["a", "b"]), ("v", &["a"])];

fn gen_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Str(["a", "ab", "a%", "x_z", "abc"][rng.gen_range(0..5usize)].to_owned()),
        _ => Value::Int(rng.gen_range(-2..10)),
    }
}

/// A column reference from the visible bindings (innermost last), sometimes
/// qualified — and sometimes deliberately ambiguous or dangling, which must
/// fail identically under both evaluators.
fn gen_column(rng: &mut StdRng, scope: &[(String, &'static [&'static str])]) -> Expr {
    if scope.is_empty() || rng.gen_bool(0.05) {
        return Expr::Column(ColumnRef {
            qualifier: None,
            column: "nosuch".to_owned(),
        });
    }
    let (name, cols) = &scope[rng.gen_range(0..scope.len())];
    let column = cols[rng.gen_range(0..cols.len())].to_owned();
    let qualifier = if rng.gen_bool(0.5) {
        Some(name.clone())
    } else {
        None
    };
    Expr::Column(ColumnRef { qualifier, column })
}

fn gen_expr(rng: &mut StdRng, scope: &[(String, &'static [&'static str])], depth: u32) -> Expr {
    let pick = if depth == 0 {
        rng.gen_range(0..2)
    } else {
        rng.gen_range(0..12)
    };
    let sub = |rng: &mut StdRng| Box::new(gen_expr(rng, scope, depth.saturating_sub(1)));
    match pick {
        0 => Expr::Literal(gen_value(rng)),
        1 => gen_column(rng, scope),
        2 => Expr::Binary {
            op: [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.gen_range(0..4usize)],
            lhs: sub(rng),
            rhs: sub(rng),
        },
        3 => Expr::Binary {
            op: [
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
            ][rng.gen_range(0..6usize)],
            lhs: sub(rng),
            rhs: sub(rng),
        },
        4 => Expr::Binary {
            op: if rng.gen_bool(0.5) {
                BinOp::And
            } else {
                BinOp::Or
            },
            lhs: sub(rng),
            rhs: sub(rng),
        },
        5 => Expr::Neg(sub(rng)),
        6 => Expr::Not(sub(rng)),
        7 => Expr::IsNull {
            expr: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        8 => Expr::InList {
            expr: sub(rng),
            list: (0..rng.gen_range(1..4))
                .map(|_| gen_expr(rng, scope, depth - 1))
                .collect(),
            negated: rng.gen_bool(0.5),
        },
        9 => Expr::Between {
            expr: sub(rng),
            low: sub(rng),
            high: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        10 => Expr::Like {
            expr: sub(rng),
            pattern: sub(rng),
            negated: rng.gen_bool(0.5),
        },
        _ => {
            let select = Box::new(gen_select(rng, scope, depth - 1));
            match rng.gen_range(0..3) {
                0 => Expr::Exists(select),
                1 => Expr::InSelect {
                    expr: sub(rng),
                    select,
                    negated: rng.gen_bool(0.5),
                },
                _ => Expr::ScalarSubquery(select),
            }
        }
    }
}

fn gen_select(
    rng: &mut StdRng,
    outer: &[(String, &'static [&'static str])],
    depth: u32,
) -> SelectStmt {
    let n_from = rng.gen_range(0..=2usize);
    let mut from = Vec::with_capacity(n_from);
    let mut scope: Vec<(String, &'static [&'static str])> = outer.to_vec();
    for k in 0..n_from {
        let (table, cols) = TABLES[rng.gen_range(0..TABLES.len())];
        let alias = if rng.gen_bool(0.4) {
            Some(format!("x{k}"))
        } else {
            None
        };
        scope.push((alias.clone().unwrap_or_else(|| table.to_owned()), cols));
        from.push(FromItem {
            table: TableRef::Base(table.to_owned()),
            alias,
        });
    }

    let items = if !from.is_empty() && rng.gen_bool(0.2) {
        vec![SelectItem::Wildcard]
    } else {
        (0..rng.gen_range(1..=3))
            .map(|_| SelectItem::Expr {
                expr: gen_expr(rng, &scope, depth),
                alias: None,
            })
            .collect()
    };
    let where_clause = if rng.gen_bool(0.7) {
        Some(gen_expr(rng, &scope, depth))
    } else {
        None
    };
    let order_by = (0..rng.gen_range(0..=2))
        .map(|_| OrderItem {
            expr: gen_expr(rng, &scope, depth.min(1)),
            desc: rng.gen_bool(0.5),
        })
        .collect();
    let mut s = SelectStmt {
        distinct: rng.gen_bool(0.3),
        items,
        from,
        where_clause,
        group_by: vec![],
        having: None,
        order_by,
    };
    if rng.gen_bool(0.3) {
        group(rng, &mut s, &scope, depth);
    }
    s
}

/// Makes `s` a grouped select: `GROUP BY` keys (sometimes none), items,
/// an optional `HAVING` and `ORDER BY` keys built from keys, aggregates
/// and literals — and now and then a bare column, `*` or a `BETWEEN`,
/// which the validator must refuse.
fn group(
    rng: &mut StdRng,
    s: &mut SelectStmt,
    scope: &[(String, &'static [&'static str])],
    depth: u32,
) {
    s.group_by = (0..rng.gen_range(0..=2))
        .map(|_| gen_expr(rng, scope, depth.min(1)))
        .collect();
    let keys = s.group_by.clone();
    s.items = if rng.gen_bool(0.03) {
        vec![SelectItem::Wildcard]
    } else {
        (0..rng.gen_range(1..=3))
            .map(|_| SelectItem::Expr {
                expr: gen_grouped(rng, scope, &keys, 2),
                alias: None,
            })
            .collect()
    };
    s.having = rng.gen_bool(0.4).then(|| gen_grouped(rng, scope, &keys, 2));
    s.order_by = (0..rng.gen_range(0..=2))
        .map(|_| OrderItem {
            expr: gen_grouped(rng, scope, &keys, 1),
            desc: rng.gen_bool(0.5),
        })
        .collect();
}

/// An expression a grouped select evaluates once per group.
fn gen_grouped(
    rng: &mut StdRng,
    scope: &[(String, &'static [&'static str])],
    keys: &[Expr],
    depth: u32,
) -> Expr {
    let pick = if depth == 0 {
        rng.gen_range(0..3)
    } else {
        rng.gen_range(0..9)
    };
    let sub = |rng: &mut StdRng| Box::new(gen_grouped(rng, scope, keys, depth.saturating_sub(1)));
    match pick {
        0 if !keys.is_empty() => keys[rng.gen_range(0..keys.len())].clone(),
        0 | 1 => gen_aggregate(rng, scope),
        2 => Expr::Literal(gen_value(rng)),
        3 => Expr::Binary {
            op: [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div][rng.gen_range(0..4usize)],
            lhs: sub(rng),
            rhs: sub(rng),
        },
        4 => Expr::Binary {
            op: [BinOp::Eq, BinOp::Lt, BinOp::Ge][rng.gen_range(0..3usize)],
            lhs: sub(rng),
            rhs: sub(rng),
        },
        5 => Expr::Binary {
            op: if rng.gen_bool(0.5) {
                BinOp::And
            } else {
                BinOp::Or
            },
            lhs: sub(rng),
            rhs: sub(rng),
        },
        6 => match rng.gen_range(0..3) {
            0 => Expr::Neg(sub(rng)),
            1 => Expr::Not(sub(rng)),
            _ => Expr::IsNull {
                expr: sub(rng),
                negated: rng.gen_bool(0.5),
            },
        },
        7 if rng.gen_bool(0.2) => Expr::Between {
            expr: sub(rng),
            low: sub(rng),
            high: sub(rng),
            negated: false,
        },
        // A bare column: misplaced unless it happens to be a key.
        7 => gen_column(rng, scope),
        _ => gen_aggregate(rng, scope),
    }
}

fn gen_aggregate(rng: &mut StdRng, scope: &[(String, &'static [&'static str])]) -> Expr {
    let func = [
        Aggregate::CountStar,
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Min,
        Aggregate::Max,
    ][rng.gen_range(0..6usize)];
    let arg = (func != Aggregate::CountStar).then(|| Box::new(gen_expr(rng, scope, 1)));
    Expr::Aggregate { func, arg }
}

fn gen_action(rng: &mut StdRng, depth: u32) -> Action {
    let (table, cols) = TABLES[rng.gen_range(0..TABLES.len())];
    let scope: Vec<(String, &'static [&'static str])> = vec![(table.to_owned(), cols)];
    let pred = |rng: &mut StdRng| {
        if rng.gen_bool(0.8) {
            Some(gen_expr(rng, &scope, depth))
        } else {
            None
        }
    };
    match rng.gen_range(0..3) {
        0 => {
            let source = if rng.gen_bool(0.5) {
                InsertSource::Values(
                    (0..rng.gen_range(1..=2))
                        .map(|_| (0..cols.len()).map(|_| gen_expr(rng, &[], depth)).collect())
                        .collect(),
                )
            } else {
                InsertSource::Select(gen_select(rng, &[], depth))
            };
            Action::Insert(InsertStmt {
                table: table.to_owned(),
                columns: None,
                source,
            })
        }
        1 => Action::Delete(starling::sql::ast::DeleteStmt {
            table: table.to_owned(),
            where_clause: pred(rng),
        }),
        _ => {
            let sets = (0..rng.gen_range(1..=2))
                .map(|_| {
                    (
                        cols[rng.gen_range(0..cols.len())].to_owned(),
                        gen_expr(rng, &scope, depth),
                    )
                })
                .collect();
            Action::Update(UpdateStmt {
                table: table.to_owned(),
                sets,
                where_clause: pred(rng),
            })
        }
    }
}

#[test]
fn random_selects_agree() {
    let db = fixture();
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = gen_select(&mut rng, &[], 3);
        assert_select_agrees(&s, &db, &format!("seed {seed}: {s:?}"));
    }
}

#[test]
fn random_actions_agree() {
    let db = fixture();
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xac7104);
        let a = gen_action(&mut rng, 2);
        assert_action_agrees(&a, &db, &format!("seed {seed}: {a:?}"));
    }
}

// ---------------------------------------------------------------------------
// Rule conditions: corpus, case studies, and transition-table binding.
// ---------------------------------------------------------------------------

/// The case studies whose rules the condition and graph levels cover; the
/// `constraints`, `audit` and `versioning` rules hold correlated aggregate
/// subqueries.
fn case_studies() -> [starling::workloads::Workload; 4] {
    [
        power_network::workload(),
        audit::workload(),
        constraints::workload(),
        versioning::workload(),
    ]
}

/// `scripts/salary_rules.rql`, whose `maintain_totals` action is a
/// correlated `sum` subquery.
fn salary_rules() -> LoadedScript {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/salary_rules.rql");
    load_script(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Asserts the contract for one rule condition under a transition binding.
fn assert_condition_agrees(
    cond: &Expr,
    catalog: &Catalog,
    rule_table: &str,
    db: &Database,
    binding: &TransitionBinding,
    what: &str,
) {
    let ctx = EvalCtx {
        db,
        transitions: Some(binding),
    };
    let mut env = Env::new(&ctx);
    let interp = eval_bool(cond, &mut env);
    let plan =
        compile_condition(cond, catalog, Some(rule_table)).expect("a rule condition compiles");
    for mode in [PlanMode::Row, PlanMode::Columnar] {
        let planned = eval_condition(&plan, db, Some(binding), mode);
        match (&interp, planned) {
            (Ok(a), Ok(b)) => assert_eq!(*a, b, "{what} [{mode:?}]: condition values diverge"),
            (Err(a), Err(b)) => assert_eq!(a, &b, "{what} [{mode:?}]: errors diverge"),
            (a, b) => panic!("{what} [{mode:?}]: interp {a:?} vs plan {b:?}"),
        }
    }
}

/// Every corpus and case-study rule condition, evaluated under empty and
/// nonempty transition bindings.
#[test]
fn corpus_and_case_study_conditions_agree() {
    // Corpus rules run against the standard 4-table catalog.
    let mut db = Database::new();
    for schema in CorpusEntry::catalog().tables() {
        db.create_table(schema.clone()).unwrap();
    }
    db.insert("t", vec![Value::Int(0)]).unwrap();
    db.insert("u", vec![Value::Int(3)]).unwrap();
    for entry in corpus() {
        let rules = entry.compile();
        for r in rules.rules() {
            let Some(cond) = &r.def.condition else {
                continue;
            };
            let empty = TransitionBinding::empty(&r.def.table);
            let full = TransitionBinding {
                table: r.def.table.clone(),
                inserted: vec![vec![Value::Int(1)], vec![Value::Int(7)]],
                deleted: vec![vec![Value::Int(2)]],
                new_updated: vec![vec![Value::Int(5)]],
                old_updated: vec![vec![Value::Int(4)]],
            };
            for (tag, b) in [("empty", &empty), ("full", &full)] {
                assert_condition_agrees(
                    cond,
                    rules.catalog(),
                    &r.def.table,
                    &db,
                    b,
                    &format!("corpus/{} rule {} ({tag})", entry.name, r.name()),
                );
            }
        }
    }

    // Case studies and the salary script: conditions against the seeded
    // databases, with bindings drawn from each rule's own table rows.
    let mut studies: Vec<(String, Database, RuleSet)> = case_studies()
        .into_iter()
        .map(|w| {
            let (db, rules) = w.compile().unwrap();
            (w.name.to_owned(), db, rules)
        })
        .collect();
    let salary = salary_rules();
    studies.push(("salary_rules".into(), salary.db, (*salary.rules).clone()));
    for (name, db, rules) in &studies {
        for r in rules.rules() {
            let Some(cond) = &r.def.condition else {
                continue;
            };
            let rows: Vec<_> = db
                .table(&r.def.table)
                .unwrap()
                .rows()
                .take(2)
                .cloned()
                .collect();
            let empty = TransitionBinding::empty(&r.def.table);
            let full = TransitionBinding {
                table: r.def.table.clone(),
                inserted: rows.clone(),
                deleted: rows.clone(),
                new_updated: rows.clone(),
                old_updated: rows,
            };
            for (tag, b) in [("empty", &empty), ("full", &full)] {
                assert_condition_agrees(
                    cond,
                    rules.catalog(),
                    &r.def.table,
                    db,
                    b,
                    &format!("case_study/{name} rule {} ({tag})", r.name()),
                );
            }
        }
    }
}

/// Conditions over transition tables with NULLs and joins, bound to the
/// fixture schema.
#[test]
fn transition_conditions_agree() {
    let db = fixture();
    let binding = TransitionBinding {
        table: "t".to_owned(),
        inserted: vec![
            vec![Value::Int(1), Value::Null, Value::Str("ab".into())],
            vec![Value::Int(9), Value::Int(2), Value::Null],
        ],
        deleted: vec![vec![Value::Int(0), Value::Int(7), Value::Str("x".into())]],
        new_updated: vec![vec![Value::Int(2), Value::Int(3), Value::Null]],
        old_updated: vec![vec![Value::Int(2), Value::Int(1), Value::Null]],
    };
    let conds = [
        "exists (select * from inserted where a > 1)",
        "exists (select * from inserted where b is null)",
        "exists (select * from inserted i, u where i.a = u.a and u.b > 0)",
        "exists (select * from deleted where a in (select a from v))",
        "exists (select * from new_updated n, old_updated o where n.a = o.a and n.b > o.b)",
        "(select b from new_updated) > 2",
        "not exists (select * from inserted where s like 'a%')",
        "exists (select distinct a from inserted order by a desc)",
    ];
    for src in conds {
        let cond = parse_expr(src).unwrap();
        assert_condition_agrees(&cond, db.catalog(), "t", &db, &binding, src);
    }
}

// ---------------------------------------------------------------------------
// Execution graphs: plan path vs forced interpretation.
// ---------------------------------------------------------------------------

fn graph_fingerprint(
    rules: &RuleSet,
    db: &Database,
    actions: &[Action],
    cfg: &ExploreConfig,
    mode: EvalMode,
    what: &str,
) -> (usize, usize, Vec<u64>) {
    let g = explore_with_mode(rules, db, actions, cfg, mode).unwrap();
    assert!(!g.truncated(), "{what}: exploration truncated");
    let mut digests: Vec<u64> = g
        .final_dbs
        .iter()
        .map(|(_, fdb)| fdb.state_digest())
        .collect();
    digests.sort_unstable();
    (g.states.len(), g.edges.len(), digests)
}

/// Full oracle exploration must be bit-identical between the compiled-plan
/// paths ([`EvalMode::Columnar`], [`EvalMode::Plan`]) and forced
/// interpretation ([`EvalMode::Interp`]).
#[test]
fn exploration_graphs_agree_with_forced_interp() {
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);

    let mut cases: Vec<(String, RuleSet, Database, Vec<Action>)> = Vec::new();

    // Terminating corpus entries.
    for entry in corpus() {
        if !matches!(
            entry.name,
            "independent" | "cascade_ordered" | "unordered_writers" | "ordered_observables"
        ) {
            continue;
        }
        let rules = entry.compile();
        let mut db = Database::new();
        for schema in CorpusEntry::catalog().tables() {
            db.create_table(schema.clone()).unwrap();
        }
        db.insert("t", vec![Value::Int(0)]).unwrap();
        db.insert("u", vec![Value::Int(0)]).unwrap();
        let action = parsed_action("insert into t values (1)");
        cases.push((format!("corpus/{}", entry.name), rules, db, vec![action]));
    }

    // The condition-heavy workload.
    let cond = CondStress {
        rows: 2_002,
        fan: 3,
    };
    for (flavor, rules) in [
        ("eq_join", cond.join_rules()),
        ("scan_filter", cond.filter_rules()),
    ] {
        cases.push((
            format!("cond/{flavor}"),
            rules,
            cond.database(),
            cond.user_actions(),
        ));
    }

    // Case studies and the salary script (power_network's 2 132 states are
    // covered by the pinned-digest case-study tests).
    for w in case_studies().into_iter().skip(1) {
        let (db, rules) = w.compile().unwrap();
        let actions = w.user_actions().unwrap();
        cases.push((format!("case_study/{}", w.name), rules, db, actions));
    }
    let salary = salary_rules();
    cases.push((
        "script/salary_rules".into(),
        (*salary.rules).clone(),
        salary.db,
        salary.user_actions,
    ));

    for (name, rules, db, actions) in &cases {
        let with_interp = graph_fingerprint(rules, db, actions, &cfg, EvalMode::Interp, name);
        for mode in [EvalMode::Columnar, EvalMode::Plan] {
            let with_plans = graph_fingerprint(rules, db, actions, &cfg, mode, name);
            assert_eq!(with_plans, with_interp, "{name} [{mode:?}]: graphs diverge");
        }
    }

    for seed in 0..6u64 {
        let case = generate(seed, &GenConfig::default());
        let with_interp = generated_fingerprint(&case, EvalMode::Interp);
        for mode in [EvalMode::Columnar, EvalMode::Plan] {
            let with_plans = generated_fingerprint(&case, mode);
            assert_eq!(
                with_plans, with_interp,
                "seed {seed} [{mode:?}]: graphs diverge"
            );
        }
    }
}

/// A generated program's exploration under `mode`, fingerprinted with its
/// truncation. Generated programs need not terminate, and a self-feeding
/// `insert … select` doubles its table on every firing, so the budget caps
/// rows and a truncated graph is compared as explored, as the fuzz
/// campaign's eval-mode oracle compares it.
fn generated_fingerprint(
    case: &FuzzCase,
    mode: EvalMode,
) -> (Option<TruncationReason>, usize, usize, Vec<u64>) {
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000)
        .with_max_rows(200);
    let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let g = explore_with_mode(&rules, &case.database(), &case.user_actions, &cfg, mode).unwrap();
    let mut digests: Vec<u64> = g
        .final_dbs
        .iter()
        .map(|(_, fdb)| fdb.state_digest())
        .collect();
    digests.sort_unstable();
    (g.truncation, g.states.len(), g.edges.len(), digests)
}

// ---------------------------------------------------------------------------
// User statements: one executor, three modes.
// ---------------------------------------------------------------------------

const MODES: [EvalMode; 3] = [EvalMode::Columnar, EvalMode::Plan, EvalMode::Interp];

/// `acct(id, bal, tag)` with `rows` rows (ids 0.., several storage chunks
/// from 1 025 rows up), an empty `log(id, bal)`, and two unordered rules on
/// `acct` — so a commit has a transition to process, and an exploration a
/// choice to make.
fn accounts(rows: i64) -> Session {
    let mut s = Session::new();
    s.execute_script(
        "create table acct (id int, bal int null, tag varchar null);
         create table log (id int, bal int null);
         create rule flag on acct when inserted, updated(bal) \
           if exists (select * from acct where bal > 900 and tag is null) \
           then update acct set tag = 'high' where bal > 900 and tag is null end;
         create rule audit on acct when updated(bal) \
           then insert into log select id, bal from new_updated where bal > 500 end;",
    )
    .unwrap();
    let mut state = s.state();
    for id in 0..rows {
        let bal = if id % 7 == 0 {
            Value::Null
        } else {
            Value::Int(id % 1000)
        };
        let tag = if id % 3 == 0 {
            Value::Null
        } else {
            Value::str("t")
        };
        state
            .db
            .insert("acct", vec![Value::Int(id), bal, tag])
            .unwrap();
    }
    s.reset_to(state);
    s
}

/// One seeded user script over [`accounts`]: 3–8 statements, about one
/// script in four with a statement that fails partway.
fn gen_user_script(rng: &mut StdRng, rows: i64) -> String {
    let mut script = String::new();
    let failing = rng.gen_bool(0.25);
    let n = rng.gen_range(3..=8);
    let fail_at = rng.gen_range(1..n);
    for i in 0..n {
        let a = rng.gen_range(0..rows);
        let b = a + rng.gen_range(1..60i64);
        let x = rng.gen_range(-5..1000);
        let stmt = if failing && i == fail_at {
            match rng.gen_range(0..4) {
                // Fails evaluating the third target row's SET expression.
                0 => format!(
                    "update acct set bal = id / (id - {}) where id >= {a}",
                    a + 2
                ),
                // Fails in the predicate, mid-scan.
                1 => format!("delete from acct where 10 / (id - {a}) > 0"),
                // Fails applying the first NULL `bal` as `log.id`, with the
                // rows before it already in.
                2 => format!(
                    "insert into log select bal, id from acct where id >= {a} and id < {}",
                    a + 14
                ),
                // A transition table outside a rule.
                _ => "insert into log select id, bal from inserted".to_owned(),
            }
        } else {
            match rng.gen_range(0..11) {
                0 => format!(
                    "insert into acct values ({}, {x}, 'n'), ({}, null, null)",
                    rows + a,
                    rows + b
                ),
                1 => {
                    format!("insert into log select id, bal from acct where id >= {a} and id < {b}")
                }
                2 => format!("update acct set bal = bal + 1 where id = {a}"),
                3 => {
                    format!("update acct set bal = bal * 2, tag = 'r' where id >= {a} and id < {b}")
                }
                4 => "update log set bal = bal + 1".to_owned(),
                5 => format!("delete from acct where id = {a}"),
                6 => format!("delete from acct where id >= {a} and id < {b}"),
                7 => "delete from log".to_owned(),
                8 => format!(
                    "select id, bal from acct where id >= {a} and id < {b} order by bal desc, id"
                ),
                9 => format!("select count(*) from acct where bal > {x}"),
                _ => "rollback".to_owned(),
            }
        };
        script.push_str(&stmt);
        script.push_str(";\n");
    }
    script
}

#[test]
fn user_scripts_agree_across_eval_modes() {
    let rows = 2_500;
    let base = accounts(rows);
    let snapshot = base.db().state_digest();
    let mut failed = 0;
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x05e7);
        let script = gen_user_script(&mut rng, rows);
        let mut runs = MODES.map(|mode| {
            let mut s = Session::new();
            s.eval_mode = mode;
            s.reset_to(base.state());
            let out = s.execute_script(&script);
            (s, out)
        });
        let what = |mode: EvalMode| format!("seed {seed} [{mode:?}]:\n{script}");
        let [(reference, expected), rest @ ..] = &runs;
        for (s, out) in rest {
            match (expected, out) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{}", what(s.eval_mode)),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{a:?} vs {b:?}: {}", what(s.eval_mode)),
            }
            assert_eq!(
                reference.pending_ops(),
                s.pending_ops(),
                "{}",
                what(s.eval_mode)
            );
        }
        if expected.is_err() {
            // Aborted to the snapshot, whatever the statement had applied.
            failed += 1;
            for (s, _) in &runs {
                assert!(s.pending_ops().is_empty(), "{}", what(s.eval_mode));
                assert_eq!(s.db().state_digest(), snapshot, "{}", what(s.eval_mode));
            }
            continue;
        }
        let digests = runs.each_mut().map(|(s, _)| {
            let result = s.commit(&mut FirstEligible).unwrap();
            assert_eq!(result.outcome, Outcome::Quiescent, "{}", what(s.eval_mode));
            s.db().state_digest()
        });
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{digests:?}: {script}"
        );
    }
    assert!((15..60).contains(&failed), "{failed} of 120 scripts failed");
}

/// The rules along a shortest path of `g` from the initial state to
/// `target`.
fn path_to(g: &ExecGraph, target: usize) -> Vec<RuleId> {
    let mut via = vec![None; g.states.len()];
    let mut queue = std::collections::VecDeque::from([0]);
    while let Some(at) = queue.pop_front() {
        for &e in &g.states[at].out_edges {
            let to = g.edges[e].to;
            if to != 0 && via[to].is_none() {
                via[to] = Some(e);
                queue.push_back(to);
            }
        }
    }
    let mut seq = Vec::new();
    let mut at = target;
    while let Some(e) = via[at] {
        seq.push(g.edges[e].rule);
        at = g.edges[e].from;
    }
    seq.reverse();
    seq
}

/// The user transition of an exploration runs under the exploration's mode:
/// a range `update` over a 3 000-row table as the initial transition, two
/// unordered rules reacting to it. Each final state then replays under
/// each mode to the database digest the graph recorded for it.
#[test]
fn exploration_user_transition_agrees_across_eval_modes() {
    let mut s = accounts(3_000);
    let rules = std::sync::Arc::clone(s.ruleset_arc().unwrap());
    let actions = [
        parsed_action("update acct set bal = bal + 600 where id >= 1000 and id < 1040"),
        parsed_action("delete from acct where id >= 2040 and id < 2050"),
    ];
    let cfg = ExploreConfig::default();
    let [columnar, plan, interp] =
        MODES.map(|mode| explore_with_mode(&rules, s.db(), &actions, &cfg, mode).unwrap());
    assert!(!interp.truncated() && interp.states.len() > 2);
    assert_eq!(columnar, interp);
    assert_eq!(plan, interp);

    let mut db = s.db().clone();
    let ops = apply_user_actions(&mut db, &actions).unwrap();
    assert!(!interp.final_states.is_empty());
    for &f in &interp.final_states {
        let seq = path_to(&interp, f);
        assert!(!seq.is_empty());
        for mode in MODES {
            let mut st = ExecState::new(db.clone(), rules.len(), &ops);
            replay_rule_sequence(&rules, &mut st, s.db(), &seq, mode).unwrap();
            assert_eq!(
                st.db.state_digest(),
                interp.states[f].db_digest,
                "final state {f} via {seq:?} [{mode:?}]"
            );
        }
    }
}

/// A rule's plans are built on its first consideration under a
/// plan-evaluating mode, never before: an `Interp` exploration of the
/// power-network script leaves every plan unbuilt, and a `Columnar` one
/// builds the plans of exactly the rules it considered.
#[test]
fn rule_plans_are_built_on_first_planned_consideration() {
    let path = format!("{}/scripts/power_network.rql", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap();
    let s = starling::analysis::load_script(&src).unwrap();
    let built = || -> Vec<bool> {
        s.rules
            .rules()
            .iter()
            .map(|r| r.plan.get().is_some())
            .collect()
    };
    assert!(built().iter().all(|b| !b), "compiling built a plan");
    let cfg = ExploreConfig::default();
    let interp = explore_with_mode(&s.rules, &s.db, &s.user_actions, &cfg, EvalMode::Interp);
    assert!(interp.unwrap().edges.len() > 1);
    assert!(
        built().iter().all(|b| !b),
        "an Interp exploration built a plan"
    );

    let g = explore_with_mode(&s.rules, &s.db, &s.user_actions, &cfg, EvalMode::Columnar).unwrap();
    let mut considered = vec![false; s.rules.len()];
    for e in &g.edges {
        considered[e.rule.0] = true;
    }
    assert_eq!(built(), considered);
}
