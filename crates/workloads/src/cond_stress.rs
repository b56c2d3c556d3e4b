//! Condition-heavy rule programs: every rule's condition scans a `big`
//! reference table on each consideration, so exploring them exercises SQL
//! condition evaluation rather than state bookkeeping — the
//! compile-once/execute-many shape the plan and columnar layers exist for.
//! The differential suites (`tests/plan_props.rs`,
//! `tests/columnar_props.rs`) explore them under every evaluation mode and
//! require identical graphs.
//!
//! One workload, sized by [`CondStress`]: `rows` in `big` (a couple of
//! thousand keeps the interpreter oracle fast; the columnar kernels and the
//! cached hash-join index only matter from ~100k rows up) and `fan`
//! interleaving rules per flavor (each extra rule multiplies the states, and
//! so the scans).
//!
//! Three flavors:
//!
//! * [`CondStress::join_rules`] — conditions of the shape
//!   `exists (select * from inserted i, big b where b.k = i.k and ...)`:
//!   an equality join between the (tiny) transition table and the big
//!   reference table. A nested-loop interpreter pays `|big|` row clones
//!   per evaluation; a hash join probes once.
//! * [`CondStress::filter_rules`] — single-table conditions
//!   (`exists (select * from big where v > ... and k > ...)`, plus an
//!   uncorrelated `IN (select ...)` from the third rule on): predicates
//!   that match only at the very end of the scan or never, forcing full
//!   scans through the pushed-down filter. An early-matching `EXISTS` would
//!   let any engine stop after a handful of rows and the table size would
//!   not matter; the user transition inserts a key near the end of `big`'s
//!   scan order for the same reason.
//!
//! * [`CondStress::write_rules`] — the join condition again, but the
//!   actions rewrite `big` itself (an update, a delete and an insert per
//!   rule, on disjoint slices), so every state holds a version of `big` of
//!   its own that shares all but the written chunks with its parent's.
//!
//! All graphs are pure rule-interleaving lattices (actions write disjoint
//! side tables or disjoint slices of `big`, and trigger nothing), so the
//! verdicts are pinned: terminates, confluent, observably deterministic.

use starling_engine::{RuleProgram, RuleSet};
use starling_sql::ast::{Action, Statement};
use starling_sql::parse_statement;
use starling_storage::{Catalog, ColumnDef, Database, TableSchema, Value, ValueType};

/// One size of the workload.
#[derive(Clone, Copy, Debug)]
pub struct CondStress {
    /// Rows in the `big` reference table. Must be `≡ 2 (mod 10)`, so that
    /// the inserted key's reference `v` is 9 and every rule guard keeps its
    /// pinned truth value.
    pub rows: i64,
    /// Interleaving rules per flavor, 1 to 3.
    pub fan: usize,
}

impl CondStress {
    /// The catalog: `evt(k, v)` (the rules' table), `big(k, v)` (reference
    /// data), `seeds(x)` (for the `IN`-subquery condition), and one side
    /// table `s{i}(x)` per fan rule.
    pub fn catalog(&self) -> Catalog {
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
        cat.add_table(
            TableSchema::new("seeds", vec![ColumnDef::new("x", ValueType::Int)]).unwrap(),
        )
        .unwrap();
        for i in 0..self.fan {
            cat.add_table(
                TableSchema::new(format!("s{i}"), vec![ColumnDef::new("x", ValueType::Int)])
                    .unwrap(),
            )
            .unwrap();
        }
        cat
    }

    /// A database over the catalog with `big` fully populated — row `k`
    /// carries `v = k % 10`, so value predicates select a known fraction of
    /// the table — and three seed keys spread across the key range.
    pub fn database(&self) -> Database {
        assert!(
            self.rows >= 16 && self.rows % 10 == 2 && (1..=3).contains(&self.fan),
            "unsupported size {self:?}"
        );
        let mut db = Database::new();
        for schema in self.catalog().tables() {
            db.create_table(schema.clone()).unwrap();
        }
        for k in 0..self.rows {
            db.insert("big", vec![Value::Int(k), Value::Int(k % 10)])
                .unwrap();
        }
        for x in [3, self.rows / 2, self.rows - 7] {
            db.insert("seeds", vec![Value::Int(x)]).unwrap();
        }
        db
    }

    /// The join-flavored rules: each joins the transition table against
    /// `big` on `k`. The matching `big` rows sit near the end of the scan
    /// (the user inserts a high `k`), so a nested loop pays for most of the
    /// table every time.
    pub fn join_rules(&self) -> RuleSet {
        let rules: Vec<String> = (0..self.fan)
            .map(|i| {
                format!(
                    "create rule j{i} on evt when inserted \
                     if exists (select * from inserted i, big b \
                                where b.k = i.k and b.v > {i}) \
                     then insert into s{i} values ({i}) end;\n"
                )
            })
            .collect();
        self.compile(&rules)
    }

    /// The filter-flavored rules: `f0` matches only in the last five keys
    /// of the scan, `f1` never matches, `f2` probes the seed keys.
    pub fn filter_rules(&self) -> RuleSet {
        let last = self.rows - 5;
        let rules = [
            format!(
                "create rule f0 on evt when inserted \
                 if exists (select * from big where v > 8 and k > {last}) \
                 then insert into s0 values (0) end;\n"
            ),
            "create rule f1 on evt when inserted \
             if exists (select * from big where v > 99) \
             then insert into s1 values (1) end;\n"
                .to_owned(),
            "create rule f2 on evt when inserted \
             if exists (select * from big where k in (select x from seeds) and v >= 0) \
             then insert into s2 values (2) end;\n"
                .to_owned(),
        ];
        self.compile(&rules[..self.fan])
    }

    /// The write-flavored rules: `w{i}` joins like `j{i}`, then updates ten
    /// keys of `big` around key `1024 (i + 1)` (across a storage-chunk
    /// boundary, when `big` is that long), deletes the three keys after
    /// them, appends a row and records itself in `s{i}`. Slices are
    /// disjoint and clear of the joined key, so the rules commute.
    pub fn write_rules(&self) -> RuleSet {
        let rules: Vec<String> = (0..self.fan as i64)
            .map(|i| {
                let lo = (1024 * (i + 1) - 4).min(self.rows / 4 * (i + 1));
                format!(
                    "create rule w{i} on evt when inserted \
                     if exists (select * from inserted i, big b \
                                where b.k = i.k and b.v > {i}) \
                     then update big set v = {neg} where k >= {lo} and k < {upd}; \
                          delete from big where k >= {upd} and k < {del}; \
                          insert into big values ({fresh}, 0); \
                          insert into s{i} values ({i}) end;\n",
                    neg = -(i + 1),
                    upd = lo + 10,
                    del = lo + 13,
                    fresh = self.rows + i,
                )
            })
            .collect();
        self.compile(&rules)
    }

    fn compile(&self, rules: &[String]) -> RuleSet {
        let defs = RuleProgram::parse(&rules.concat())
            .expect("cond_stress script parses")
            .defs;
        RuleSet::compile(&defs, &self.catalog()).expect("cond_stress script compiles")
    }

    /// The user transition: one insert into `evt` with a `k` that joins
    /// near the end of `big`'s scan order and a `v` that satisfies every
    /// join rule.
    pub fn user_actions(&self) -> Vec<Action> {
        let k = self.rows - 3;
        let Statement::Dml(a) =
            parse_statement(&format!("insert into evt values ({k}, 9)")).unwrap()
        else {
            unreachable!()
        };
        vec![a]
    }
}

#[cfg(test)]
mod tests {
    use starling_engine::{explore_with_mode, EvalMode, ExploreConfig};

    use super::*;

    /// At both sizes the suites use, each flavor explores identically under
    /// all three evaluation modes — terminating, confluent — with the
    /// expected rules firing.
    #[test]
    fn cond_stress_graphs_pinned_across_modes() {
        let cfg = ExploreConfig::default()
            .with_max_states(5_000)
            .with_max_paths(10_000);
        for (size, filters_fired) in [
            // f1's condition (`v > 99`) is never true; f0 and f2 fire.
            (
                CondStress {
                    rows: 2_002,
                    fan: 3,
                },
                2,
            ),
            (CondStress { rows: 72, fan: 2 }, 1),
        ] {
            let db = size.database();
            let actions = size.user_actions();
            for (name, rules, fired_rules) in [
                ("join", size.join_rules(), size.fan),
                ("filter", size.filter_rules(), filters_fired),
                ("write", size.write_rules(), size.fan),
            ] {
                let mut digests = Vec::new();
                for mode in [EvalMode::Columnar, EvalMode::Plan, EvalMode::Interp] {
                    let at = format!("{name} at {size:?} under {mode:?}");
                    let g = explore_with_mode(&rules, &db, &actions, &cfg, mode).unwrap();
                    assert!(!g.truncated(), "{at} truncated");
                    assert_eq!(g.terminates(), Some(true), "{at}");
                    assert_eq!(g.confluent(), Some(true), "{at}");
                    assert_eq!(g.final_db_digests().len(), 1, "{at}");
                    // All rules' actions are inserts into distinct side
                    // tables, so the final state pins how many conditions
                    // evaluated true.
                    let (_, final_db) = g.final_dbs.first().expect("one final state");
                    let fired = (0..size.fan)
                        .filter(|i| final_db.table(&format!("s{i}")).unwrap().len() == 1)
                        .count();
                    assert_eq!(fired, fired_rules, "{at}");
                    digests.push(final_db.state_digest());
                }
                assert!(
                    digests.windows(2).all(|w| w[0] == w[1]),
                    "{name} at {size:?}: final digests diverge across modes: {digests:#018x?}"
                );
            }
        }
    }
}
