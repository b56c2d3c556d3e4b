//! Seeded random generation of valid rule sets, databases, and transitions.
//!
//! The generator is the corpus source for every oracle-vs-analysis
//! experiment: given the same [`RandomConfig`] it reproduces the same
//! workload bit-for-bit. All generated rule sets pass semantic validation
//! (this is property-tested), so experiment pipelines never trip over
//! malformed inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use starling_engine::RuleSet;
use starling_sql::ast::*;
use starling_storage::{Catalog, ColumnDef, Database, TableSchema, Value, ValueType};

/// Parameters of the random workload generator.
#[derive(Clone, Debug)]
pub struct RandomConfig {
    /// Number of tables (`t0 .. t{n-1}`).
    pub n_tables: usize,
    /// Columns per table (`c0 .. c{m-1}`, all integer).
    pub n_cols: usize,
    /// Number of rules (`r0 .. r{k-1}`).
    pub n_rules: usize,
    /// Maximum actions per rule (at least 1 is always generated).
    pub max_actions: usize,
    /// Probability a rule has a condition.
    pub p_condition: f64,
    /// Probability an extra action slot is an observable `SELECT`.
    pub p_observable: f64,
    /// Probability each rule pair `(i, j)`, `i < j`, is ordered
    /// (`r_i precedes r_j` — always downward, so priorities stay acyclic).
    pub p_priority: f64,
    /// Rows seeded per table in [`GeneratedWorkload::seed_database`].
    pub rows_per_table: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            n_tables: 4,
            n_cols: 3,
            n_rules: 8,
            max_actions: 2,
            p_condition: 0.5,
            p_observable: 0.15,
            p_priority: 0.2,
            rows_per_table: 3,
            seed: 0,
        }
    }
}

/// A generated workload.
#[derive(Clone, Debug)]
pub struct GeneratedWorkload {
    /// The schema.
    pub catalog: Catalog,
    /// The generated rules.
    pub defs: Vec<RuleDef>,
    /// Configuration used (for reporting).
    pub config: RandomConfig,
}

impl GeneratedWorkload {
    /// Compiles the rule set (infallible for generated workloads; panics on
    /// generator bugs, which the property tests would catch first).
    pub fn compile(&self) -> RuleSet {
        RuleSet::compile(&self.defs, &self.catalog).expect("generated workload must compile")
    }

    /// A database over the catalog, seeded with `rows_per_table` rows of
    /// small integers (so conditions are sometimes true, sometimes false).
    pub fn seed_database(&self) -> Database {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed_da7a);
        let mut db = Database::new();
        for schema in self.catalog.tables() {
            db.create_table(schema.clone()).expect("fresh catalog");
        }
        for schema in self.catalog.tables() {
            for _ in 0..self.config.rows_per_table {
                let row: Vec<Value> = (0..schema.arity())
                    .map(|_| Value::Int(rng.gen_range(0..10)))
                    .collect();
                db.insert(&schema.name, row).expect("typed row");
            }
        }
        db
    }

    /// A random user transition: 1–3 DML statements over the catalog.
    pub fn user_transition(&self, salt: u64) -> Vec<Action> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ salt);
        let n = rng.gen_range(1..=3);
        (0..n)
            .map(|_| random_dml(&mut rng, &self.catalog))
            .collect()
    }

    /// The rules as a parseable script.
    pub fn script(&self) -> String {
        let mut s = String::new();
        for d in &self.defs {
            s.push_str(&d.to_string());
            s.push_str(";\n");
        }
        s
    }
}

/// Generates a workload from a configuration.
pub fn generate(config: &RandomConfig) -> GeneratedWorkload {
    assert!(config.n_tables > 0 && config.n_cols > 0 && config.max_actions > 0);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut catalog = Catalog::new();
    for t in 0..config.n_tables {
        let cols = (0..config.n_cols)
            .map(|c| ColumnDef::new(format!("c{c}"), ValueType::Int))
            .collect();
        catalog
            .add_table(TableSchema::new(format!("t{t}"), cols).expect("distinct columns"))
            .expect("distinct tables");
    }

    let mut defs = Vec::with_capacity(config.n_rules);
    for r in 0..config.n_rules {
        defs.push(random_rule(&mut rng, config, r));
    }

    // Acyclic random priorities: only `r_i precedes r_j` for i < j.
    for i in 0..config.n_rules {
        for j in (i + 1)..config.n_rules {
            if rng.gen_bool(config.p_priority) {
                let target = defs[j].name.clone();
                defs[i].precedes.push(target);
            }
        }
    }

    GeneratedWorkload {
        catalog,
        defs,
        config: config.clone(),
    }
}

/// `k` genuinely independent partitions of five rules each: `k` small
/// generated workloads, every table and rule renamed into its partition's
/// namespace (`p3_t0`, `p3_r0`) so that no two share a table. Returns the
/// combined catalog and rule definitions.
pub fn partitioned(k: usize) -> (Catalog, Vec<RuleDef>) {
    let mut catalog = Catalog::new();
    let mut defs = Vec::new();
    for p in 0..k {
        let w = generate(&RandomConfig {
            n_tables: 3,
            n_cols: 2,
            n_rules: 5,
            max_actions: 2,
            p_condition: 0.5,
            p_observable: 0.1,
            p_priority: 0.3,
            rows_per_table: 2,
            seed: p as u64,
        });
        for schema in w.catalog.tables() {
            let name = format!("p{p}_{}", schema.name);
            catalog
                .add_table(TableSchema::new(name, schema.columns.clone()).expect("same columns"))
                .expect("distinct tables");
        }
        for def in &w.defs {
            let renamed = namespace_tokens(&def.to_string(), p);
            let Statement::CreateRule(def) =
                starling_sql::parse_statement(&renamed).expect("renamed rule parses")
            else {
                unreachable!()
            };
            defs.push(def);
        }
    }
    (catalog, defs)
}

/// Prefixes every `t<digits>` / `r<digits>` identifier token with `p{p}_`.
/// Generated identifiers are exactly `t<digits>` / `r<digits>` /
/// `c<digits>`, so a token-boundary scan is unambiguous.
fn namespace_tokens(script: &str, p: usize) -> String {
    let chars: Vec<char> = script.chars().collect();
    let mut out = String::with_capacity(script.len() + 64);
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let at_token_start = i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        if at_token_start && (c == 't' || c == 'r') {
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            let ends_token = j == chars.len() || !(chars[j].is_alphanumeric() || chars[j] == '_');
            if j > i + 1 && ends_token {
                out.push_str(&format!("p{p}_"));
                out.extend(&chars[i..j]);
                i = j;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn table_name(rng: &mut StdRng, cfg: &RandomConfig) -> String {
    format!("t{}", rng.gen_range(0..cfg.n_tables))
}

fn col_name(rng: &mut StdRng, cfg: &RandomConfig) -> String {
    format!("c{}", rng.gen_range(0..cfg.n_cols))
}

fn random_rule(rng: &mut StdRng, cfg: &RandomConfig, idx: usize) -> RuleDef {
    let table = table_name(rng, cfg);
    let event = match rng.gen_range(0..3) {
        0 => TriggerEvent::Inserted,
        1 => TriggerEvent::Deleted,
        _ => TriggerEvent::Updated(Some(vec![col_name(rng, cfg)])),
    };

    // Condition referencing the transition table matching the event, or the
    // base table — both shapes appear in real Starburst programs.
    let condition = if rng.gen_bool(cfg.p_condition) {
        let source = if rng.gen_bool(0.5) {
            match &event {
                TriggerEvent::Inserted => TableRef::Transition(TransitionTable::Inserted),
                TriggerEvent::Deleted => TableRef::Transition(TransitionTable::Deleted),
                TriggerEvent::Updated(_) => TableRef::Transition(TransitionTable::NewUpdated),
            }
        } else {
            TableRef::Base(table.clone())
        };
        let col = col_name(rng, cfg);
        let bound = rng.gen_range(0..10);
        Some(Expr::Exists(Box::new(SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: vec![FromItem {
                table: source,
                alias: None,
            }],
            where_clause: Some(Expr::bin(
                if rng.gen_bool(0.5) {
                    BinOp::Gt
                } else {
                    BinOp::Lt
                },
                Expr::col(&col),
                Expr::int(bound),
            )),
            group_by: vec![],
            having: None,
            order_by: vec![],
        })))
    } else {
        None
    };

    let n_actions = rng.gen_range(1..=cfg.max_actions);
    let mut actions: Vec<Action> = (0..n_actions).map(|_| random_action(rng, cfg)).collect();
    if rng.gen_bool(cfg.p_observable) {
        let t = table_name(rng, cfg);
        let c = col_name(rng, cfg);
        actions.push(Action::Select(SelectStmt {
            distinct: false,
            items: vec![SelectItem::Expr {
                expr: Expr::col(&c),
                alias: None,
            }],
            from: vec![FromItem {
                table: TableRef::Base(t),
                alias: None,
            }],
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: vec![],
        }));
    }

    RuleDef {
        name: format!("r{idx}"),
        table,
        events: vec![event],
        condition,
        actions,
        precedes: Vec::new(),
        follows: Vec::new(),
    }
}

fn random_action(rng: &mut StdRng, cfg: &RandomConfig) -> Action {
    let table = table_name(rng, cfg);
    match rng.gen_range(0..3) {
        0 => Action::Insert(InsertStmt {
            table,
            columns: None,
            source: InsertSource::Values(vec![(0..cfg.n_cols)
                .map(|_| Expr::int(rng.gen_range(0..10)))
                .collect()]),
        }),
        1 => Action::Delete(DeleteStmt {
            where_clause: bound_predicate(rng, cfg),
            table,
        }),
        _ => {
            let col = col_name(rng, cfg);
            let set_expr = if rng.gen_bool(0.5) {
                Expr::int(rng.gen_range(0..10))
            } else {
                Expr::bin(BinOp::Add, Expr::col(&col), Expr::int(rng.gen_range(1..4)))
            };
            Action::Update(UpdateStmt {
                sets: vec![(col, set_expr)],
                where_clause: bound_predicate(rng, cfg),
                table,
            })
        }
    }
}

fn bound_predicate(rng: &mut StdRng, cfg: &RandomConfig) -> Option<Expr> {
    if rng.gen_bool(0.7) {
        Some(Expr::bin(
            if rng.gen_bool(0.5) {
                BinOp::Lt
            } else {
                BinOp::Gt
            },
            Expr::col(&col_name(rng, cfg)),
            Expr::int(rng.gen_range(0..10)),
        ))
    } else {
        None
    }
}

fn random_dml(rng: &mut StdRng, catalog: &Catalog) -> Action {
    let tables: Vec<&TableSchema> = catalog.tables().collect();
    let schema = tables[rng.gen_range(0..tables.len())];
    let table = schema.name.clone();
    match rng.gen_range(0..3) {
        0 => Action::Insert(InsertStmt {
            table,
            columns: None,
            source: InsertSource::Values(vec![(0..schema.arity())
                .map(|_| Expr::int(rng.gen_range(0..10)))
                .collect()]),
        }),
        1 => Action::Delete(DeleteStmt {
            where_clause: Some(Expr::bin(
                BinOp::Lt,
                Expr::col(&schema.columns[0].name),
                Expr::int(rng.gen_range(0..10)),
            )),
            table,
        }),
        _ => Action::Update(UpdateStmt {
            sets: vec![(
                schema.columns[rng.gen_range(0..schema.arity())]
                    .name
                    .clone(),
                Expr::int(rng.gen_range(0..10)),
            )],
            where_clause: Some(Expr::bin(
                BinOp::Gt,
                Expr::col(&schema.columns[0].name),
                Expr::int(rng.gen_range(0..10)),
            )),
            table,
        }),
    }
}

#[cfg(test)]
mod tests {
    use starling_sql::RuleSignature;

    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = RandomConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.defs, b.defs);
        assert_eq!(
            a.seed_database().state_digest(),
            b.seed_database().state_digest()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&RandomConfig::default());
        let b = generate(&RandomConfig {
            seed: 99,
            ..RandomConfig::default()
        });
        assert_ne!(a.defs, b.defs);
    }

    #[test]
    fn generated_rules_validate_across_seeds() {
        for seed in 0..50 {
            let w = generate(&RandomConfig {
                seed,
                n_rules: 10,
                ..RandomConfig::default()
            });
            for def in &w.defs {
                RuleSignature::of_rule(def, &w.catalog)
                    .unwrap_or_else(|e| panic!("seed {seed}, rule {}: {e}", def.name));
            }
            let rs = w.compile();
            assert_eq!(rs.len(), 10);
        }
    }

    #[test]
    fn script_round_trips() {
        let w = generate(&RandomConfig::default());
        let script = w.script();
        let stmts = starling_sql::parse_script(&script).unwrap();
        assert_eq!(stmts.len(), w.defs.len());
    }

    #[test]
    fn user_transitions_are_valid() {
        let w = generate(&RandomConfig::default());
        for salt in 0..10 {
            for a in w.user_transition(salt) {
                starling_sql::validate::validate_dml(&a, &w.catalog).unwrap();
            }
        }
    }

    #[test]
    fn seeded_database_has_rows() {
        let w = generate(&RandomConfig::default());
        let db = w.seed_database();
        for t in db.tables() {
            assert_eq!(t.len(), w.config.rows_per_table);
        }
    }

    #[test]
    fn priorities_are_acyclic() {
        // p_priority = 1.0 generates the complete downward order — still
        // acyclic, so compilation succeeds.
        let w = generate(&RandomConfig {
            p_priority: 1.0,
            ..RandomConfig::default()
        });
        let rs = w.compile();
        assert!(rs.priority().ordered_pair_count() > 0);
    }
}
