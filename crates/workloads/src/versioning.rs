//! Versioning rules — one of the paper's introduction applications
//! ("integrity constraint enforcement, derived data maintenance, triggers
//! and alerters, authorization checking, and **versioning**").
//!
//! Documents live in `doc`; every content update is recorded as an
//! immutable row in `version`, and `doc.head` tracks the latest version
//! number. The recording rule is triggered by updates of `doc.content` and
//! itself updates `doc.head` — a different column, so the triggering graph
//! is acyclic and termination is guaranteed outright; what the analyzer
//! does flag is `snapshot` against `immutable_versions` (condition 2′), on
//! which the oracle finds one final state (`tests/case_studies.rs`).

use crate::Workload;

/// The versioning workload.
pub fn workload() -> Workload {
    Workload {
        name: "versioning",
        setup: SETUP.to_owned(),
        rules: RULES.to_owned(),
        user_transition: USER.to_owned(),
    }
}

const SETUP: &str = "
create table doc (did int, content int, head int);
create table version (did int, vno int, content int);

insert into doc values (1, 100, 0);
insert into doc values (2, 200, 0);
";

const RULES: &str = "
-- Record every content change as a new immutable version row.
create rule snapshot on doc
when updated(content)
then insert into version
       select did, head + 1, content from new_updated;
     update doc set head = head + 1
       where did in (select did from new_updated)
precedes guard_heads
end;

-- Versions are append-only: deleting one aborts the transaction.
create rule immutable_versions on version
when deleted
then rollback
end;

-- Sanity guard: head may never run ahead of the recorded versions.
create rule guard_heads on doc
when updated(head)
if exists (select * from doc where head >
             (select count(*) from version where did = doc.did))
then rollback
end;
";

const USER: &str = "
update doc set content = 101 where did = 1;
";

#[cfg(test)]
mod tests {
    use starling_engine::{explore, ExploreConfig, FirstEligible, Outcome, Processor};
    use starling_storage::Value;

    use super::*;

    #[test]
    fn snapshot_records_versions_and_bumps_head() {
        let w = workload();
        let (db, rules) = w.compile().unwrap();
        let snapshot = db.clone();
        let mut working = db.clone();
        let ops = starling_engine::exec_graph::apply_user_actions(
            &mut working,
            &w.user_actions().unwrap(),
        )
        .unwrap();
        let mut st = starling_engine::ExecState::new(working, rules.len(), &ops);
        let res = Processor::new(&rules)
            .with_limit(200)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Quiescent);

        let version = st.db.table("version").unwrap();
        assert_eq!(version.len(), 1);
        let (_, row) = version.iter().next().unwrap();
        assert_eq!(row, &vec![Value::Int(1), Value::Int(1), Value::Int(101)]);

        let doc = st.db.table("doc").unwrap();
        let heads: Vec<&Value> = doc.iter().map(|(_, r)| &r[2]).collect();
        assert!(heads.contains(&&Value::Int(1)));
    }

    #[test]
    fn deleting_a_version_rolls_back() {
        let w = workload();
        let (db, rules) = w.compile().unwrap();
        // First produce a version row via the normal path.
        let snapshot = db.clone();
        let mut working = db.clone();
        let ops = starling_engine::exec_graph::apply_user_actions(
            &mut working,
            &w.user_actions().unwrap(),
        )
        .unwrap();
        let mut st = starling_engine::ExecState::new(working, rules.len(), &ops);
        Processor::new(&rules)
            .with_limit(200)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        let with_version = st.db.clone();

        // Now a transaction that deletes from `version` must roll back.
        let del: Vec<_> = starling_sql::parse_script("delete from version")
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                starling_sql::ast::Statement::Dml(a) => Some(a),
                _ => None,
            })
            .collect();
        let snapshot2 = with_version.clone();
        let mut working2 = with_version.clone();
        let ops2 = starling_engine::exec_graph::apply_user_actions(&mut working2, &del).unwrap();
        let mut st2 = starling_engine::ExecState::new(working2, rules.len(), &ops2);
        let res = Processor::new(&rules)
            .with_limit(200)
            .run(&mut st2, &snapshot2, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::RolledBack);
        assert_eq!(st2.db.table("version").unwrap().len(), 1);
    }

    #[test]
    fn oracle_terminates_on_the_update_scenario() {
        let w = workload();
        let (db, rules) = w.compile().unwrap();
        let g = explore(
            &rules,
            &db,
            &w.user_actions().unwrap(),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(true));
        assert_eq!(g.confluent(), Some(true));
    }
}
