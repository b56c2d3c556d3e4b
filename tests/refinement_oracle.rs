//! The Section 9 predicate-level refinement: the two examples the paper
//! gives after Lemma 6.1 and condition 3's update side, verified
//! end-to-end — the refined analysis accepts the rule sets, and the
//! exhaustive oracle confirms confluence — with negative controls. Every
//! case creates its two rules in both orders.

use starling::analysis::certifications::Certifications;
use starling::analysis::confluence::analyze_confluence;
use starling::analysis::context::AnalysisContext;
use starling::prelude::*;
use starling::sql::ast::Statement;

/// The setup's database and the two rules compiled in both creation
/// orders, so each discharge is tested with the writer as `i` and as `j`.
fn both_orders(setup: &str, rules: [&str; 2]) -> [(Database, RuleSet); 2] {
    let mut session = Session::new();
    session.execute_script(setup).unwrap();
    session.commit(&mut FirstEligible).unwrap();
    let [a, b] = rules;
    [[a, b], [b, a]].map(|order| {
        let defs: Vec<_> = starling::sql::parse_script(&order.join(";\n"))
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                Statement::CreateRule(r) => Some(r),
                _ => None,
            })
            .collect();
        let rules = RuleSet::compile(&defs, session.db().catalog()).unwrap();
        (session.db().clone(), rules)
    })
}

/// Whether the refined analysis accepts `rules`, after checking that the
/// paper-exact one does not.
fn refined_requirement_holds(rules: &RuleSet) -> bool {
    let plain = AnalysisContext::from_ruleset(rules, Certifications::new());
    assert!(!analyze_confluence(&plain).requirement_holds());
    let refined = AnalysisContext::from_ruleset(rules, Certifications::new()).with_refinement();
    analyze_confluence(&refined).requirement_holds()
}

/// Whether the exhaustive execution graph of `user_src` has one final
/// state.
fn explored_confluent(db: &Database, rules: &RuleSet, user_src: &str) -> Option<bool> {
    explore(rules, db, &user(user_src), &ExploreConfig::default())
        .unwrap()
        .confluent()
}

fn user(src: &str) -> Vec<starling::sql::ast::Action> {
    starling::sql::parse_script(src)
        .unwrap()
        .into_iter()
        .filter_map(|s| match s {
            Statement::Dml(a) => Some(a),
            _ => None,
        })
        .collect()
}

/// Paper example 2: "r_i and r_j update the same table but never the same
/// tuples" (disjoint key ranges). Paper-exact, condition 5 fires (both
/// update shard.v); refined, the WHERE clauses k = 1 / k = 2 are provably
/// disjoint — the pair commutes, and the oracle agrees.
#[test]
fn disjoint_updates_refined_and_oracle_confirmed() {
    let setup = "
        create table t (x int);
        create table shard (k int, v int);
        insert into shard values (1, 0);
        insert into shard values (2, 0);
    ";
    let rules = [
        "create rule low on t when inserted
         then update shard set v = 10 where k = 1 end",
        "create rule high on t when inserted
         then update shard set v = 20 where k = 2 end",
    ];
    for (db, rules) in both_orders(setup, rules) {
        assert!(refined_requirement_holds(&rules));
        assert_eq!(
            explored_confluent(&db, &rules, "insert into t values (1)"),
            Some(true)
        );
    }
}

/// Condition 3 with an update on the writer's side (the disjoint-shards
/// pattern): `tag` writes `shard.v`, which `sweep`'s predicate reads, but
/// only on rows `sweep` never selects.
#[test]
fn disjoint_update_read_refined_and_oracle_confirmed() {
    let setup = "
        create table t (x int);
        create table shard (k int, v int, w int);
        insert into shard values (1, 9, 0);
        insert into shard values (2, 9, 0);
    ";
    let rules = [
        "create rule tag on t when inserted
         then update shard set v = 10 where k = 1 end",
        "create rule sweep on t when inserted
         then update shard set w = 1 where k = 2 and v > 5 end",
    ];
    for (db, rules) in both_orders(setup, rules) {
        assert!(refined_requirement_holds(&rules));
        assert_eq!(
            explored_confluent(&db, &rules, "insert into t values (1)"),
            Some(true)
        );
    }
}

/// Paper example 1: "the tuples inserted by r_i never satisfy the delete
/// condition of r_j" — prio = 9 never satisfies prio < 3, so the
/// refinement discharges condition 4.
#[test]
fn insert_outside_delete_predicate_refined() {
    let setup = "
        create table t (x int);
        create table q (prio int, payload int);
        insert into q values (5, 100);
    ";
    let rules = [
        "create rule enqueue on t when inserted
         then insert into q values (9, 1) end",
        "create rule purge_low on t when inserted
         then delete from q where prio < 3 end",
    ];
    for (db, rules) in both_orders(setup, rules) {
        assert!(refined_requirement_holds(&rules));
        assert_eq!(
            explored_confluent(&db, &rules, "insert into t values (1)"),
            Some(true)
        );
    }
}

/// Negative control: when the insert CAN satisfy the delete predicate, the
/// refinement must keep the reason — and the oracle indeed shows
/// non-confluence: enqueue-then-purge deletes the fresh row;
/// purge-then-enqueue keeps it.
#[test]
fn overlapping_insert_delete_not_refined() {
    let setup = "
        create table t (x int);
        create table q (prio int, payload int);
    ";
    let rules = [
        "create rule enqueue on t when inserted
         then insert into q values (1, 1) end",
        "create rule purge_low on t when inserted
         then delete from q where prio < 3 end",
    ];
    for (db, rules) in both_orders(setup, rules) {
        assert!(!refined_requirement_holds(&rules));
        assert_eq!(
            explored_confluent(&db, &rules, "insert into t values (1)"),
            Some(false)
        );
    }
}

/// Negative control for updates: overlapping ranges stay flagged.
#[test]
fn overlapping_updates_not_refined() {
    let setup = "
        create table t (x int);
        create table shard (k int, v int);
        insert into shard values (1, 0);
    ";
    let rules = [
        "create rule a on t when inserted
         then update shard set v = 10 where k < 5 end",
        "create rule b on t when inserted
         then update shard set v = 20 where k >= 0 end",
    ];
    for (db, rules) in both_orders(setup, rules) {
        assert!(!refined_requirement_holds(&rules));
        assert_eq!(
            explored_confluent(&db, &rules, "insert into t values (1)"),
            Some(false)
        );
    }
}

/// Negative control for condition 3's update side: the reader's range
/// overlaps the rows the writer updates, so the reason stays.
#[test]
fn overlapping_update_read_not_refined() {
    let setup = "
        create table t (x int);
        create table shard (k int, v int, w int);
        insert into shard values (1, 0, 0);
    ";
    let rules = [
        "create rule tag on t when inserted
         then update shard set v = 10 where k = 1 end",
        "create rule sweep on t when inserted
         then update shard set w = 1 where k < 5 and v > 5 end",
    ];
    for (db, rules) in both_orders(setup, rules) {
        assert!(!refined_requirement_holds(&rules));
        assert_eq!(
            explored_confluent(&db, &rules, "insert into t values (1)"),
            Some(false)
        );
    }
}

/// An unguarded update (no WHERE) can never be refined away.
#[test]
fn unguarded_update_not_refined() {
    let setup = "
        create table t (x int);
        create table shard (k int, v int);
        insert into shard values (1, 0);
    ";
    let rules = [
        "create rule a on t when inserted
         then update shard set v = 10 where k = 1 end",
        "create rule b on t when inserted
         then update shard set v = 20 end",
    ];
    for (_db, rules) in both_orders(setup, rules) {
        assert!(!refined_requirement_holds(&rules));
    }
}
