//! DML execution with tuple-level effect reporting.
//!
//! Execution is two-phase: evaluate (against the pre-statement state), then
//! apply. The returned [`TupleOp`]s are the engine's raw material for the
//! operation log and net-effect computation.

use starling_storage::{Database, Op, Row, TupleId, Value};

use crate::ast::{Action, DeleteStmt, InsertSource, InsertStmt, UpdateStmt};
use crate::error::SqlError;
use crate::eval::env::{Env, EvalCtx, RowBinding, TransitionBinding};
use crate::eval::expr::{eval_bool, eval_expr, is_true};
use crate::eval::select::{eval_select, ResultSet};

/// One concrete, tuple-level database operation: what executing a statement
/// did to one tuple, and an entry in the engine's operation log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TupleOp {
    /// A tuple was inserted.
    Insert {
        /// Target table.
        table: String,
        /// Assigned tuple id.
        id: TupleId,
        /// Inserted values.
        row: Row,
    },
    /// A tuple was deleted.
    Delete {
        /// Target table.
        table: String,
        /// Deleted tuple id.
        id: TupleId,
        /// Values at deletion time.
        old: Row,
    },
    /// A tuple was updated.
    Update {
        /// Target table.
        table: String,
        /// Updated tuple id.
        id: TupleId,
        /// Values before.
        old: Row,
        /// Values after.
        new: Row,
        /// The columns assigned by the `SET` list. Triggering semantics key
        /// on assignment, not on whether the value actually changed.
        cols: Vec<String>,
    },
}

impl TupleOp {
    /// The table this operation touches.
    pub fn table(&self) -> &str {
        match self {
            TupleOp::Insert { table, .. }
            | TupleOp::Delete { table, .. }
            | TupleOp::Update { table, .. } => table,
        }
    }

    /// The tuple this operation touches.
    pub fn tuple_id(&self) -> TupleId {
        match self {
            TupleOp::Insert { id, .. }
            | TupleOp::Delete { id, .. }
            | TupleOp::Update { id, .. } => *id,
        }
    }

    /// The abstract operations (paper Section 3) this tuple operation is an
    /// occurrence of: one per assigned column for an update, else one. Every
    /// effect of one statement yields the same ones.
    pub fn abstract_ops(&self) -> Vec<Op> {
        match self {
            TupleOp::Insert { table, .. } => vec![Op::Insert(table.clone())],
            TupleOp::Delete { table, .. } => vec![Op::Delete(table.clone())],
            TupleOp::Update { table, cols, .. } => cols
                .iter()
                .map(|c| Op::update(table.clone(), c.clone()))
                .collect(),
        }
    }
}

/// The outcome of executing one action statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ActionOutcome {
    /// Data modification: the tuple-level effects (possibly empty).
    Effects(Vec<TupleOp>),
    /// Data retrieval: the observable result rows.
    Rows(ResultSet),
    /// A rollback was requested.
    Rollback,
}

/// Executes one action statement against the database.
///
/// `transitions` supplies the rule's transition tables when executing a rule
/// action; pass `None` for user statements.
pub fn exec_action(
    action: &Action,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
) -> Result<ActionOutcome, SqlError> {
    match action {
        Action::Insert(stmt) => exec_insert(stmt, db, transitions).map(ActionOutcome::Effects),
        Action::Delete(stmt) => exec_delete(stmt, db, transitions).map(ActionOutcome::Effects),
        Action::Update(stmt) => exec_update(stmt, db, transitions).map(ActionOutcome::Effects),
        Action::Select(stmt) => {
            let ctx = EvalCtx { db, transitions };
            let mut env = Env::new(&ctx);
            eval_select(stmt, &mut env).map(ActionOutcome::Rows)
        }
        Action::Rollback => Ok(ActionOutcome::Rollback),
    }
}

fn exec_insert(
    stmt: &InsertStmt,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
) -> Result<Vec<TupleOp>, SqlError> {
    // Phase 1: evaluate all source rows against the pre-statement state.
    let rows: Vec<Row> = {
        let ctx = EvalCtx { db, transitions };
        let mut env = Env::new(&ctx);
        match &stmt.source {
            InsertSource::Values(tuples) => {
                let mut out = Vec::with_capacity(tuples.len());
                for t in tuples {
                    let mut row = Vec::with_capacity(t.len());
                    for e in t {
                        row.push(eval_expr(e, &mut env)?);
                    }
                    out.push(row);
                }
                out
            }
            InsertSource::Select(s) => eval_select(s, &mut env)?.rows,
        }
    };

    // Map through the explicit column list, filling gaps with NULL.
    let full_rows: Vec<Row> = match &stmt.columns {
        None => rows,
        Some(cols) => {
            let schema = db.catalog().table(&stmt.table)?;
            let mut indices = Vec::with_capacity(cols.len());
            for c in cols {
                indices.push(schema.column_index(c).ok_or_else(|| {
                    SqlError::validate(format!(
                        "insert target `{}` has no column `{c}`",
                        stmt.table
                    ))
                })?);
            }
            let arity = schema.arity();
            rows.into_iter()
                .map(|r| {
                    let mut full = vec![Value::Null; arity];
                    for (i, v) in indices.iter().zip(r) {
                        full[*i] = v;
                    }
                    full
                })
                .collect()
        }
    };

    // Phase 2: apply.
    let mut effects = Vec::with_capacity(full_rows.len());
    for row in full_rows {
        let id = db.insert(&stmt.table, row.clone())?;
        effects.push(TupleOp::Insert {
            table: stmt.table.clone(),
            id,
            row,
        });
    }
    Ok(effects)
}

fn exec_delete(
    stmt: &DeleteStmt,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
) -> Result<Vec<TupleOp>, SqlError> {
    let victims = matching_tuples(&stmt.table, stmt.where_clause.as_ref(), db, transitions)?;
    let mut effects = Vec::with_capacity(victims.len());
    for (id, _) in victims {
        let old = db.delete(&stmt.table, id)?;
        effects.push(TupleOp::Delete {
            table: stmt.table.clone(),
            id,
            old,
        });
    }
    Ok(effects)
}

fn exec_update(
    stmt: &UpdateStmt,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
) -> Result<Vec<TupleOp>, SqlError> {
    let set_indices: Vec<usize> = {
        let schema = db.catalog().table(&stmt.table)?;
        let mut indices = Vec::with_capacity(stmt.sets.len());
        for (c, _) in &stmt.sets {
            indices.push(schema.column_index(c).ok_or_else(|| {
                SqlError::validate(format!(
                    "update target `{}` has no column `{c}`",
                    stmt.table
                ))
            })?);
        }
        indices
    };

    // Phase 1: pick targets and compute new rows against the old state.
    let targets = matching_tuples(&stmt.table, stmt.where_clause.as_ref(), db, transitions)?;
    let mut planned: Vec<(TupleId, Row, Row)> = Vec::with_capacity(targets.len());
    {
        let ctx = EvalCtx { db, transitions };
        let mut env = Env::new(&ctx);
        for (id, old) in targets {
            env.push(vec![RowBinding {
                name: stmt.table.clone(),
                table: stmt.table.clone(),
                row: old.clone(),
            }]);
            let mut new = old.clone();
            let result: Result<(), SqlError> = (|| {
                for (idx, (_, e)) in set_indices.iter().zip(&stmt.sets) {
                    new[*idx] = eval_expr(e, &mut env)?;
                }
                Ok(())
            })();
            env.pop();
            result?;
            planned.push((id, old, new));
        }
    }

    // Phase 2: apply.
    let set_cols: Vec<String> = stmt.sets.iter().map(|(c, _)| c.clone()).collect();
    let mut effects = Vec::with_capacity(planned.len());
    for (id, old, new) in planned {
        db.update(&stmt.table, id, new.clone())?;
        effects.push(TupleOp::Update {
            table: stmt.table.clone(),
            id,
            old,
            new,
            cols: set_cols.clone(),
        });
    }
    Ok(effects)
}

/// Tuples of `table` satisfying `where_clause` (all tuples when absent),
/// evaluated against the current state.
fn matching_tuples(
    table: &str,
    where_clause: Option<&crate::ast::Expr>,
    db: &Database,
    transitions: Option<&TransitionBinding>,
) -> Result<Vec<(TupleId, Row)>, SqlError> {
    let tbl = db.table(table)?;
    let Some(w) = where_clause else {
        return Ok(tbl.iter().map(|(id, r)| (id, r.clone())).collect());
    };
    let ctx = EvalCtx { db, transitions };
    let mut env = Env::new(&ctx);
    let mut out = Vec::new();
    // The binding names are the same every iteration; thread them through
    // the popped frame so each candidate costs one row clone and nothing
    // else, and only matching rows keep theirs.
    let mut name = table.to_owned();
    let mut table_name = table.to_owned();
    for (id, row) in tbl.iter() {
        env.push(vec![RowBinding {
            name,
            table: table_name,
            row: row.clone(),
        }]);
        let v = eval_bool(w, &mut env);
        let binding = env
            .pop_frame()
            .and_then(|mut f| f.pop())
            .expect("frame pushed above");
        name = binding.name;
        table_name = binding.table;
        if is_true(&v?) {
            out.push((id, binding.row));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    use crate::ast::Statement;
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
        d
    }

    fn run(d: &mut Database, src: &str) -> Result<ActionOutcome, SqlError> {
        let Statement::Dml(a) = parse_statement(src).unwrap() else {
            panic!()
        };
        exec_action(&a, d, None)
    }

    fn effects(d: &mut Database, src: &str) -> Vec<TupleOp> {
        match run(d, src).unwrap() {
            ActionOutcome::Effects(fx) => fx,
            o => panic!("expected effects, got {o:?}"),
        }
    }

    #[test]
    fn insert_values_multi_row() {
        let mut d = db();
        let fx = effects(&mut d, "insert into t values (1, 10), (2, 20)");
        assert_eq!(fx.len(), 2);
        assert_eq!(d.table("t").unwrap().len(), 2);
        assert!(matches!(&fx[0], TupleOp::Insert { row, .. } if row[0] == Value::Int(1)));
    }

    #[test]
    fn insert_with_column_list_fills_null() {
        let mut d = db();
        effects(&mut d, "insert into t (a) values (5)");
        let t = d.table("t").unwrap();
        let (_, row) = t.iter().next().unwrap();
        assert_eq!(row, &vec![Value::Int(5), Value::Null]);
    }

    #[test]
    fn insert_column_list_out_of_order() {
        let mut d = db();
        effects(&mut d, "insert into t (b, a) values (20, 2)");
        let t = d.table("t").unwrap();
        let (_, row) = t.iter().next().unwrap();
        assert_eq!(row, &vec![Value::Int(2), Value::Int(20)]);
    }

    #[test]
    fn insert_select_snapshot_semantics() {
        let mut d = db();
        effects(&mut d, "insert into t values (1, 10)");
        // Self-referencing insert must read the pre-statement state: exactly
        // one new row, not an infinite loop.
        let fx = effects(&mut d, "insert into t select a + 1, b from t");
        assert_eq!(fx.len(), 1);
        assert_eq!(d.table("t").unwrap().len(), 2);
    }

    #[test]
    fn insert_null_into_non_nullable_fails() {
        let mut d = db();
        assert!(run(&mut d, "insert into t (b) values (1)").is_err());
        assert!(run(&mut d, "insert into t values (null, 1)").is_err());
        // Failed insert leaves no partial state.
        assert_eq!(d.table("t").unwrap().len(), 0);
    }

    #[test]
    fn delete_with_predicate() {
        let mut d = db();
        effects(&mut d, "insert into t values (1, 10), (2, 20), (3, null)");
        let fx = effects(&mut d, "delete from t where b >= 10");
        assert_eq!(fx.len(), 2);
        // NULL row survives (predicate unknown).
        assert_eq!(d.table("t").unwrap().len(), 1);
        let fx = effects(&mut d, "delete from t");
        assert_eq!(fx.len(), 1);
        assert!(d.table("t").unwrap().is_empty());
    }

    #[test]
    fn update_set_oriented() {
        let mut d = db();
        effects(&mut d, "insert into t values (1, 10), (2, 20)");
        // Swap-style update: all rhs evaluated against the old state.
        let fx = effects(&mut d, "update t set a = b / 10, b = a * 100");
        assert_eq!(fx.len(), 2);
        let rows: Vec<Row> = d
            .table("t")
            .unwrap()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(100)],
                vec![Value::Int(2), Value::Int(200)],
            ]
        );
        for f in fx {
            let TupleOp::Update { old, new, .. } = f else {
                panic!()
            };
            assert_ne!(old, new);
        }
    }

    #[test]
    fn update_records_identity_even_when_value_unchanged() {
        // SQL/Starburst semantics: UPDATE touches every matching tuple, even
        // when the new value equals the old (the transition still contains
        // the update operation).
        let mut d = db();
        effects(&mut d, "insert into t values (1, 10)");
        let fx = effects(&mut d, "update t set a = a");
        assert_eq!(fx.len(), 1);
        let TupleOp::Update { old, new, .. } = &fx[0] else {
            panic!()
        };
        assert_eq!(old, new);
    }

    #[test]
    fn empty_target_sets() {
        let mut d = db();
        assert!(effects(&mut d, "delete from t where a = 99").is_empty());
        assert!(effects(&mut d, "update t set a = 1 where a = 99").is_empty());
    }

    #[test]
    fn select_outcome_rows() {
        let mut d = db();
        effects(&mut d, "insert into t values (1, 10)");
        let ActionOutcome::Rows(rs) = run(&mut d, "select a from t").unwrap() else {
            panic!()
        };
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn update_with_subquery_in_where() {
        let mut d = db();
        effects(&mut d, "insert into t values (1, 10), (2, 20)");
        let fx = effects(
            &mut d,
            "update t set b = 0 where a = (select max(a) from t)",
        );
        assert_eq!(fx.len(), 1);
        let TupleOp::Update { new, .. } = &fx[0] else {
            panic!()
        };
        assert_eq!(new, &vec![Value::Int(2), Value::Int(0)]);
    }
}
