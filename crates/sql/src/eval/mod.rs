//! Evaluation of SQL statements against a database state.
//!
//! Rule conditions and actions are evaluated with an optional
//! [`TransitionBinding`]: the four logical transition tables reflecting the
//! rule's triggering transition (paper Section 2). The engine computes the
//! binding from net effects and passes it in at consideration time.
//!
//! DML execution is two-phase: the target set and all new values are fully
//! evaluated against the *pre-statement* state, then applied — giving SQL's
//! set-oriented semantics (no Halloween problem) and producing a
//! [`TupleOp`] record per touched tuple for the engine's operation log.

pub mod dml;
pub mod env;
pub mod expr;
pub mod select;

pub use dml::{exec_action, ActionOutcome, TupleOp};
pub use env::{Env, EvalCtx, TransitionBinding};
pub use select::{eval_select, ResultSet};

#[cfg(test)]
mod tests {
    use starling_storage::{ColumnDef, Database, TableSchema, Value, ValueType};

    use crate::ast::{Action, Statement};
    use crate::parser::parse_statement;

    use super::*;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "emp",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("name", ValueType::Str),
                    ColumnDef::new("salary", ValueType::Int),
                    ColumnDef::new("dno", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        d.create_table(
            TableSchema::new(
                "dept",
                vec![
                    ColumnDef::new("dno", ValueType::Int),
                    ColumnDef::new("budget", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        for (id, name, sal, dno) in [(1, "ann", 100, 1), (2, "bob", 200, 1), (3, "cay", 300, 2)] {
            d.insert(
                "emp",
                vec![
                    Value::Int(id),
                    Value::str(name),
                    Value::Int(sal),
                    Value::Int(dno),
                ],
            )
            .unwrap();
        }
        d.insert("dept", vec![Value::Int(1), Value::Int(1000)])
            .unwrap();
        d.insert("dept", vec![Value::Int(2), Value::Int(2000)])
            .unwrap();
        d
    }

    fn run(d: &mut Database, src: &str) -> ActionOutcome {
        let Statement::Dml(a) = parse_statement(src).unwrap() else {
            panic!("not dml: {src}")
        };
        exec_action(&a, d, None).unwrap()
    }

    fn query(d: &Database, src: &str) -> ResultSet {
        let Statement::Dml(Action::Select(s)) = parse_statement(src).unwrap() else {
            panic!("not select: {src}")
        };
        let ctx = EvalCtx {
            db: d,
            transitions: None,
        };
        let mut env = Env::new(&ctx);
        eval_select(&s, &mut env).unwrap()
    }

    #[test]
    fn end_to_end_select() {
        let d = db();
        let rs = query(&d, "select name from emp where salary > 150");
        assert_eq!(rs.columns, vec!["name"]);
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn end_to_end_join() {
        let d = db();
        let rs = query(
            &d,
            "select e.name, d.budget from emp e, dept d where e.dno = d.dno and d.budget > 1500",
        );
        assert_eq!(rs.rows, vec![vec![Value::str("cay"), Value::Int(2000)]]);
    }

    #[test]
    fn end_to_end_dml_pipeline() {
        let mut d = db();
        let ActionOutcome::Effects(fx) =
            run(&mut d, "update emp set salary = salary + 10 where dno = 1")
        else {
            panic!()
        };
        assert_eq!(fx.len(), 2);
        let rs = query(&d, "select sum(salary) from emp");
        assert_eq!(rs.rows[0][0], Value::Int(100 + 10 + 200 + 10 + 300));

        let ActionOutcome::Effects(fx) = run(&mut d, "delete from emp where salary < 150") else {
            panic!()
        };
        assert_eq!(fx.len(), 1);
        assert_eq!(d.table("emp").unwrap().len(), 2);
    }

    #[test]
    fn correlated_subquery() {
        let d = db();
        // Employees earning the max salary of their department.
        let rs = query(
            &d,
            "select name from emp e where salary = \
             (select max(salary) from emp where dno = e.dno)",
        );
        let names: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(names, vec![Value::str("bob"), Value::str("cay")]);
    }

    #[test]
    fn rollback_outcome() {
        let mut d = db();
        assert!(matches!(run(&mut d, "rollback"), ActionOutcome::Rollback));
    }
}
