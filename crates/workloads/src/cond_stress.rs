//! Condition-heavy rule programs for oracle benchmarking.
//!
//! The [`stress`](crate::stress) workload measures raw state throughput
//! with trivially-true rules; these workloads measure the *other* oracle
//! cost center: SQL condition evaluation. Every rule carries a condition
//! that scans a [`BIG_ROWS`]-row reference table on each consideration, so
//! exploration time is dominated by condition evaluation rather than state
//! bookkeeping — exactly the compile-once/execute-many workload the query
//! plan layer targets.
//!
//! Two flavors:
//!
//! * [`join_rules`] — conditions of the shape
//!   `exists (select * from inserted i, big b where b.k = i.k and ...)`:
//!   an equality join between the (tiny) transition table and the big
//!   reference table. A nested-loop interpreter pays `|big|` row clones
//!   per evaluation; a hash join probes once.
//! * [`filter_rules`] — single-table conditions
//!   (`exists (select * from big where v > ... and k > ...)`, plus an
//!   uncorrelated `IN (select ...)`): predicates that either match only at
//!   the very end of the scan or never match, forcing full scans through
//!   the pushed-down filter.
//!
//! Both graphs are pure rule-interleaving lattices (actions write disjoint
//! side tables that trigger nothing), so the verdicts are pinned:
//! terminates, confluent, observably deterministic.

use starling_engine::{RuleProgram, RuleSet};
use starling_sql::ast::{Action, Statement};
use starling_sql::parse_statement;
use starling_storage::{Catalog, ColumnDef, Database, TableSchema, Value, ValueType};

/// Rows in the `big` reference table. Sized so condition evaluation
/// dominates per-exploration cost even on the compiled row-plan path
/// (at a few hundred rows the graph bookkeeping drowns the scans the
/// family exists to measure); must stay `≡ 2 (mod 10)` so the inserted
/// key's reference `v` is 9 and the rule guards keep their pinned truth
/// values.
pub const BIG_ROWS: i64 = 2_002;
/// Number of interleaving rules per flavor.
pub const FAN: usize = 3;

/// The catalog: `evt(k, v)` (the rules' table), `big(k, v)` (reference
/// data), `seeds(x)` (for `IN`-subquery conditions), and one side table
/// `s{i}(x)` per fan rule.
pub fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    for name in ["evt", "big"] {
        cat.add_table(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    }
    cat.add_table(TableSchema::new("seeds", vec![ColumnDef::new("x", ValueType::Int)]).unwrap())
        .unwrap();
    for i in 0..FAN {
        cat.add_table(
            TableSchema::new(format!("s{i}"), vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
        )
        .unwrap();
    }
    cat
}

/// A database over the catalog with `big` fully populated: row `k` carries
/// `v = k % 10`, so value predicates select a known fraction of the table.
pub fn database() -> Database {
    let mut db = Database::new();
    for schema in catalog().tables() {
        db.create_table(schema.clone()).unwrap();
    }
    for k in 0..BIG_ROWS {
        db.insert("big", vec![Value::Int(k), Value::Int(k % 10)])
            .unwrap();
    }
    for x in [3, 400, 507] {
        db.insert("seeds", vec![Value::Int(x)]).unwrap();
    }
    db
}

/// The join-flavored rule script (see module docs).
pub fn join_rules_script() -> String {
    let mut s = String::new();
    // Each rule joins the transition table against `big` on `k`. The
    // matching `big` rows sit near the end of the scan (the user inserts a
    // high `k`), so a nested loop pays for most of the table every time.
    for i in 0..FAN {
        s.push_str(&format!(
            "create rule j{i} on evt when inserted \
             if exists (select * from inserted i, big b \
                        where b.k = i.k and b.v > {i}) \
             then insert into s{i} values ({i}) end;\n"
        ));
    }
    s
}

/// The filter-flavored rule script (see module docs).
pub fn filter_rules_script() -> String {
    let last = BIG_ROWS - 5;
    format!(
        "create rule f0 on evt when inserted \
         if exists (select * from big where v > 8 and k > {last}) \
         then insert into s0 values (0) end;\n\
         create rule f1 on evt when inserted \
         if exists (select * from big where v > 99) \
         then insert into s1 values (1) end;\n\
         create rule f2 on evt when inserted \
         if exists (select * from big where k in (select x from seeds) and v >= 0) \
         then insert into s2 values (2) end;\n"
    )
}

fn compile_script(script: &str) -> RuleSet {
    let defs = RuleProgram::parse(script)
        .expect("cond_stress script parses")
        .defs;
    RuleSet::compile(&defs, &catalog()).expect("cond_stress script compiles")
}

/// Compiles the join-flavored rule set.
pub fn join_rules() -> RuleSet {
    compile_script(&join_rules_script())
}

/// Compiles the filter-flavored rule set.
pub fn filter_rules() -> RuleSet {
    compile_script(&filter_rules_script())
}

/// The user transition: one insert into `evt` with a `k` that joins near
/// the end of `big`'s scan order.
pub fn user_actions() -> Vec<Action> {
    let k = BIG_ROWS - 3;
    let Statement::Dml(a) = parse_statement(&format!("insert into evt values ({k}, 9)")).unwrap()
    else {
        unreachable!()
    };
    vec![a]
}

#[cfg(test)]
mod tests {
    use starling_engine::{explore, ExploreConfig};

    use super::*;

    /// Both flavors terminate, are confluent, and have pinned graph sizes —
    /// the determinism anchor for the condition-heavy bench cases.
    #[test]
    fn cond_stress_graphs_pinned() {
        let cfg = ExploreConfig::default()
            .with_max_states(5_000)
            .with_max_paths(10_000);
        for (name, rules, fired_rules) in [
            ("join", join_rules(), FAN),
            // f1's condition (`v > 99`) is never true; f0 and f2 fire.
            ("filter", filter_rules(), 2),
        ] {
            let g = explore(&rules, &database(), &user_actions(), &cfg).unwrap();
            assert!(!g.truncated(), "{name} truncated");
            assert_eq!(g.terminates(), Some(true), "{name}");
            assert_eq!(g.confluent(), Some(true), "{name}");
            assert_eq!(g.final_db_digests().len(), 1, "{name}");
            // All rules' actions are inserts into distinct side tables, so
            // the final state pins how many conditions evaluated true.
            let (_, db) = g.final_dbs.first().expect("one final state");
            let fired = (0..FAN)
                .filter(|i| db.table(&format!("s{i}")).unwrap().len() == 1)
                .count();
            assert_eq!(fired, fired_rules, "{name}");
        }
    }
}
