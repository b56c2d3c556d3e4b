//! Large-table scaling workloads for the columnar execution path.
//!
//! [`cond_stress`](crate::cond_stress) pins its reference table at a few
//! hundred rows so the full bench family stays fast under the row-at-a-time
//! oracle. This module parameterizes the same condition shapes by row
//! count so the bench harness can measure 100k- and 1M-row tables, where
//! the columnar scan/filter kernels and the cached per-version hash join
//! index dominate (`scale/*` in `BENCH_oracle.json`).
//!
//! The predicates are deliberately late- or never-matching (`k > rows-5`,
//! `v > 99`): an early-matching `EXISTS` would let any engine stop after a
//! handful of rows and the table size would not matter. The user transition
//! inserts a key near the end of `big`'s scan order for the same reason.
//!
//! Both flavors are pure rule-interleaving lattices over disjoint side
//! tables, so — like `cond_stress` — the verdicts are pinned: terminates,
//! confluent, observably deterministic.

use starling_engine::{RuleProgram, RuleSet};
use starling_sql::ast::{Action, Statement};
use starling_sql::parse_statement;
use starling_storage::{Catalog, ColumnDef, Database, TableSchema, Value, ValueType};

/// Number of interleaving rules per flavor. Smaller than
/// `cond_stress::FAN`: the graph shape is not what `scale/*` measures, and
/// each extra rule multiplies the per-exploration scan work.
pub const FAN: usize = 2;

/// The catalog: `evt(k, v)` (the rules' table), `big(k, v)` (the scaled
/// reference table), `seeds(x)`, and one side table `s{i}(x)` per rule.
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

/// A database with `big` holding `rows` rows (`v = k % 10`, as in
/// `cond_stress`) and three seed keys spread across the key range.
pub fn database(rows: i64) -> Database {
    assert!(rows >= 16, "scale workload needs a non-trivial table");
    let mut db = Database::new();
    for schema in catalog().tables() {
        db.create_table(schema.clone()).unwrap();
    }
    for k in 0..rows {
        db.insert("big", vec![Value::Int(k), Value::Int(k % 10)])
            .unwrap();
    }
    for x in [3, rows / 2, rows - 7] {
        db.insert("seeds", vec![Value::Int(x)]).unwrap();
    }
    db
}

/// The filter-flavored rules: `f0` matches only in the last five keys of
/// the scan, `f1` never matches — both force full scans through the
/// pushed-down (vectorized) predicate.
pub fn filter_rules(rows: i64) -> RuleSet {
    let last = rows - 5;
    compile_script(&format!(
        "create rule f0 on evt when inserted \
         if exists (select * from big where v > 8 and k > {last}) \
         then insert into s0 values (0) end;\n\
         create rule f1 on evt when inserted \
         if exists (select * from big where v > 99) \
         then insert into s1 values (1) end;\n"
    ))
}

/// The join-flavored rules: each joins the (tiny) transition table against
/// `big` on `k`. A nested loop pays `rows` comparisons per evaluation; the
/// batch path probes the cached hash index once.
pub fn join_rules(_rows: i64) -> RuleSet {
    let mut s = String::new();
    for i in 0..FAN {
        s.push_str(&format!(
            "create rule j{i} on evt when inserted \
             if exists (select * from inserted i, big b \
                        where b.k = i.k and b.v > {i}) \
             then insert into s{i} values ({i}) end;\n"
        ));
    }
    compile_script(&s)
}

fn compile_script(script: &str) -> RuleSet {
    let defs = RuleProgram::parse(script)
        .expect("scale script parses")
        .defs;
    RuleSet::compile(&defs, &catalog()).expect("scale script compiles")
}

/// The user transition: one insert into `evt` with a `k` that joins near
/// the end of `big`'s scan order and a `v` that satisfies every join rule.
pub fn user_actions(rows: i64) -> Vec<Action> {
    let k = rows - 3;
    let Statement::Dml(a) = parse_statement(&format!("insert into evt values ({k}, 9)")).unwrap()
    else {
        unreachable!()
    };
    vec![a]
}

#[cfg(test)]
mod tests {
    use starling_engine::{explore_with_mode, EvalMode, ExploreConfig};

    use super::*;

    /// A small instance of each flavor explores identically under all
    /// three evaluation modes, with the expected rules firing.
    #[test]
    fn scale_graphs_pinned_across_modes() {
        // `rows - 3 ≡ 9 (mod 10)`: the inserted key's reference `v` is 9,
        // so every join rule's `v > i` guard holds.
        let rows = 72;
        let db = database(rows);
        let actions = user_actions(rows);
        let cfg = ExploreConfig::default()
            .with_max_states(5_000)
            .with_max_paths(10_000);
        for (name, rules, fired_rules) in [
            ("join", join_rules(rows), FAN),
            // f1's condition (`v > 99`) is never true; only f0 fires.
            ("filter", filter_rules(rows), 1),
        ] {
            let mut digests = Vec::new();
            for mode in [EvalMode::Columnar, EvalMode::Plan, EvalMode::Interp] {
                let g = explore_with_mode(&rules, &db, &actions, &cfg, mode).unwrap();
                assert!(!g.truncated(), "{name} truncated under {mode:?}");
                assert_eq!(g.terminates(), Some(true), "{name} under {mode:?}");
                assert_eq!(g.confluent(), Some(true), "{name} under {mode:?}");
                let (_, final_db) = g.final_dbs.first().expect("one final state");
                let fired = (0..FAN)
                    .filter(|i| final_db.table(&format!("s{i}")).unwrap().len() == 1)
                    .count();
                assert_eq!(fired, fired_rules, "{name} under {mode:?}");
                digests.push(final_db.state_digest());
            }
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "{name}: final digests diverge across modes: {digests:#018x?}"
            );
        }
    }
}
