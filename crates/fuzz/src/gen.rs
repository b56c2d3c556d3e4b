//! Seeded, deterministic generation of random schemas, initial databases,
//! and Starburst rule programs.
//!
//! The generator produces *valid* programs by construction: every column
//! reference resolves, every `insert` matches its target's arity, transition
//! tables (`inserted` / `deleted` / `new_updated` / `old_updated`) are
//! referenced only by rules whose transition predicate includes the matching
//! triggering operation, and `precedes` / `follows` edges are drawn only
//! downward in rule-index order so the priority order stays acyclic (a
//! priority *cycle* is a script error, not an interesting execution).
//!
//! It is the repository's one random-program generator: the fuzz
//! campaigns, the reproduction's experiments, the property suites and the
//! benchmark's analysis workload all draw from [`generate`], each through
//! a [`GenConfig`] of its own.
//!
//! Everything is a pure function of the seed: the RNG is the vendored
//! splitmix64 [`StdRng`] and no iteration order depends on a hash map, so a
//! fuzz run's report is byte-identical across repetitions — the property the
//! `starling fuzz` CLI contract and the CI job rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starling_sql::ast::{
    Action, BinOp, DeleteStmt, Expr, FromItem, InsertSource, InsertStmt, RuleDef, SelectItem,
    SelectStmt, Statement, TableRef, TransitionTable, TriggerEvent, UpdateStmt,
};
use starling_storage::{Catalog, ColumnDef, Database, TableSchema, Value, ValueType};

/// Size and probability knobs for [`generate`]. The defaults keep programs
/// small enough that one exploration under the fuzz budget runs in
/// milliseconds, while still covering multi-table, multi-rule interactions.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Tables per schema, `1..=max_tables`.
    pub max_tables: usize,
    /// Columns per table, `1..=max_cols`.
    pub max_cols: usize,
    /// Rules per program, `min_rules..=max_rules`.
    pub max_rules: usize,
    /// Lower bound on rules per program (clamped to `1..=max_rules`).
    /// The default of 1 preserves the historical draw; scale configs pin
    /// `min_rules == max_rules` so a "10k-rule program" has exactly 10k.
    pub min_rules: usize,
    /// Actions per rule, `1..=max_actions`.
    pub max_actions: usize,
    /// Seed rows per table, `0..=max_rows`.
    pub max_rows: usize,
    /// User-transition statements, `1..=max_user_actions`.
    pub max_user_actions: usize,
    /// Probability a rule has an `if` condition.
    pub p_condition: f64,
    /// Probability an unordered rule pair gets a `precedes`/`follows` edge.
    pub p_order: f64,
    /// Probability an action slot is an observable `select`.
    pub p_observable: f64,
    /// Probability an action slot is a `rollback`.
    pub p_rollback: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_tables: 3,
            max_cols: 3,
            max_rules: 5,
            min_rules: 1,
            max_actions: 3,
            max_rows: 3,
            max_user_actions: 2,
            p_condition: 0.5,
            p_order: 0.25,
            p_observable: 0.12,
            p_rollback: 0.04,
        }
    }
}

/// Above this rule count, [`generate`] switches the priority-edge pass from
/// the exhaustive O(n²) pair scan to sparse O(n) sampling. Programs at or
/// below the limit are byte-identical to what every earlier release
/// generated for the same seed and config.
pub const DENSE_ORDER_LIMIT: usize = 64;

impl GenConfig {
    /// The reproduction's standard corpus (the E-tables and the soundness
    /// suites): four-rule programs over up to four two-column tables,
    /// dense enough that rules interact, with a healthy mix of accepted and
    /// rejected rule sets.
    pub const CORPUS: GenConfig = GenConfig {
        max_tables: 4,
        max_cols: 2,
        max_rules: 4,
        min_rules: 4,
        max_actions: 2,
        max_rows: 2,
        max_user_actions: 3,
        p_condition: 0.5,
        p_order: 0.4,
        p_observable: 0.2,
        p_rollback: 0.04,
    };

    /// A sparse corpus (§9's subsumption chain separates on it): three
    /// single-action rules over up to ten tables, few shared references.
    pub const SPARSE: GenConfig = GenConfig {
        max_tables: 10,
        max_cols: 2,
        max_rules: 3,
        min_rules: 3,
        max_actions: 1,
        max_rows: 1,
        max_user_actions: 2,
        p_condition: 0.2,
        p_order: 0.3,
        p_observable: 0.0,
        p_rollback: 0.0,
    };

    /// A config for large analysis workloads: up to `rules` rules spread
    /// over proportionally many tables. Keeping tables ≈ rules/2 bounds the
    /// number of conflicting pairs (rules collide only when their tables
    /// overlap), so a 10k-rule program yields an analysis report of sane
    /// size rather than ~n²/2 violations. Seed rows are dropped — analysis
    /// is static, the initial database is irrelevant — and so are
    /// observable/rollback action slots, so the measured cost is the §6
    /// pair machinery itself rather than the §8 observable sweep.
    pub fn scaled(rules: usize) -> GenConfig {
        GenConfig {
            max_rules: rules.max(1),
            min_rules: rules.max(1),
            max_tables: (rules / 2).max(3),
            max_rows: 0,
            p_observable: 0.0,
            p_rollback: 0.0,
            ..GenConfig::default()
        }
    }
}

/// A generated table: `name` with integer columns `c0..c{cols-1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Table name (`t0`, `t1`, ...).
    pub name: String,
    /// Column count.
    pub cols: usize,
}

/// One generated program: schema, seed rows, rules, and the user transition
/// probed by `explore`. The case is kept in AST form (not text) so the
/// shrinker can delete and simplify parts structurally and re-render.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The schema.
    pub tables: Vec<TableSpec>,
    /// Seed rows: `(table index, values)`, inserted before the rules.
    pub rows: Vec<(usize, Vec<i64>)>,
    /// The rule program.
    pub defs: Vec<RuleDef>,
    /// The user transition (DML after the rules, per the script convention).
    pub user_actions: Vec<Action>,
}

impl FuzzCase {
    /// The case's schema as a [`Catalog`] —
    /// lets large cases compile via `RuleSet::compile(&case.defs, ...)`
    /// directly, without rendering and re-parsing a multi-megabyte script.
    pub fn catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for t in &self.tables {
            let cols = (0..t.cols)
                .map(|c| ColumnDef::new(format!("c{c}"), ValueType::Int))
                .collect();
            cat.add_table(TableSchema::new(&t.name, cols).expect("generated schema"))
                .expect("generated table names are unique");
        }
        cat
    }

    /// A database over [`FuzzCase::catalog`] holding the case's seed rows —
    /// the state its script's setup statements commit.
    pub fn database(&self) -> Database {
        let mut db = Database::new();
        for schema in self.catalog().tables() {
            db.create_table(schema.clone()).expect("fresh catalog");
        }
        for (ti, vals) in &self.rows {
            let row = vals.iter().map(|&v| Value::Int(v)).collect();
            db.insert(&self.tables[*ti].name, row).expect("typed row");
        }
        db
    }

    /// Another user transition over the case's tables, drawn from `salt` by
    /// the same drawer [`generate`] uses for [`FuzzCase::user_actions`]. A
    /// caller probing many programs folds each program's seed into the salt.
    pub fn transition(&self, salt: u64, cfg: &GenConfig) -> Vec<Action> {
        let mut rng = StdRng::seed_from_u64(salt ^ 0x7a5a_17e5_0000_0000);
        gen_transition(&mut rng, cfg, &self.tables, &self.defs)
    }

    /// Renders the case as a runnable script per the loader convention:
    /// `create table`s, seed DML, rules, then the user transition.
    pub fn script(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for t in &self.tables {
            let cols: Vec<String> = (0..t.cols).map(|c| format!("c{c} int")).collect();
            let _ = writeln!(s, "create table {} ({});", t.name, cols.join(", "));
        }
        for (ti, vals) in &self.rows {
            let vals: Vec<String> = vals.iter().map(ToString::to_string).collect();
            let _ = writeln!(
                s,
                "insert into {} values ({});",
                self.tables[*ti].name,
                vals.join(", ")
            );
        }
        for def in &self.defs {
            let _ = writeln!(s, "{def};");
        }
        for a in &self.user_actions {
            let _ = writeln!(s, "{a};");
        }
        s
    }
}

/// The transition tables a rule with `events` may legally reference.
fn allowed_transitions(events: &[TriggerEvent]) -> Vec<TransitionTable> {
    let mut out = Vec::new();
    for e in events {
        match e {
            TriggerEvent::Inserted => out.push(TransitionTable::Inserted),
            TriggerEvent::Deleted => out.push(TransitionTable::Deleted),
            TriggerEvent::Updated(_) => {
                out.push(TransitionTable::NewUpdated);
                out.push(TransitionTable::OldUpdated);
            }
        }
    }
    out
}

/// A small integer literal. Negative values are spelled as unary minus
/// applied to a positive literal — the shape the parser produces for `-3` —
/// so generated ASTs survive the print→parse round-trip unchanged.
fn lit(rng: &mut StdRng) -> Expr {
    let v = rng.gen_range(-9i64..=9);
    if v < 0 {
        Expr::Neg(Box::new(Expr::int(-v)))
    } else {
        Expr::int(v)
    }
}

/// A random column of a `cols`-wide table.
fn col(rng: &mut StdRng, cols: usize) -> Expr {
    Expr::col(&format!("c{}", rng.gen_range(0..cols)))
}

/// A scalar expression over a `cols`-wide row: a literal, a column, a
/// column plus/minus a small constant (the shape that drives monotone
/// growth, the interesting case for termination), or `k - column` (an
/// involution: applying it twice restores the value, the shape that drives
/// finite cycles — nontermination the exec graph can actually *prove* — and
/// order-dependent final states).
fn scalar(rng: &mut StdRng, cols: usize) -> Expr {
    match rng.gen_range(0..5u32) {
        0 => lit(rng),
        1 => col(rng, cols),
        2 => Expr::bin(
            BinOp::Add,
            col(rng, cols),
            Expr::int(rng.gen_range(1i64..=3)),
        ),
        3 => Expr::bin(
            BinOp::Sub,
            col(rng, cols),
            Expr::int(rng.gen_range(1i64..=3)),
        ),
        _ => Expr::bin(
            BinOp::Sub,
            Expr::int(rng.gen_range(0i64..=3)),
            col(rng, cols),
        ),
    }
}

/// A boolean predicate over a `cols`-wide row.
fn predicate(rng: &mut StdRng, cols: usize) -> Expr {
    let simple = |rng: &mut StdRng| {
        let op = match rng.gen_range(0..6u32) {
            0 => BinOp::Eq,
            1 => BinOp::Ne,
            2 => BinOp::Lt,
            3 => BinOp::Le,
            4 => BinOp::Gt,
            _ => BinOp::Ge,
        };
        let l = col(rng, cols);
        let r = if rng.gen_bool(0.3) {
            col(rng, cols)
        } else {
            lit(rng)
        };
        Expr::bin(op, l, r)
    };
    match rng.gen_range(0..10u32) {
        0 => Expr::bin(BinOp::And, simple(rng), simple(rng)),
        1 => Expr::bin(BinOp::Or, simple(rng), simple(rng)),
        2 => Expr::InList {
            expr: Box::new(col(rng, cols)),
            list: vec![lit(rng), lit(rng)],
            negated: rng.gen_bool(0.3),
        },
        _ => simple(rng),
    }
}

/// A `FROM` source for a rule body: one of the base tables, or (with bias,
/// when any are legal) one of the rule's transition tables. Returns the
/// source and its column count.
fn pick_source(
    rng: &mut StdRng,
    tables: &[TableSpec],
    rule_table_cols: usize,
    trans: &[TransitionTable],
) -> (TableRef, usize) {
    if !trans.is_empty() && rng.gen_bool(0.55) {
        let t = trans[rng.gen_range(0..trans.len())];
        // Transition tables carry the rule table's schema.
        (TableRef::Transition(t), rule_table_cols)
    } else {
        let ti = rng.gen_range(0..tables.len());
        (TableRef::Base(tables[ti].name.clone()), tables[ti].cols)
    }
}

fn select_from(source: TableRef, items: Vec<SelectItem>, where_clause: Option<Expr>) -> SelectStmt {
    SelectStmt {
        distinct: false,
        items,
        from: vec![FromItem {
            table: source,
            alias: None,
        }],
        where_clause,
        group_by: Vec::new(),
        having: None,
        order_by: Vec::new(),
    }
}

/// One rule action. `rule_ti` is the rule's own table: update and delete
/// targets are biased toward it, because a rule that rewrites the table it
/// triggers on is the shape that closes execution-graph cycles (the paper's
/// nontermination examples) — a uniform target choice almost never produces
/// one.
fn gen_action(
    rng: &mut StdRng,
    cfg: &GenConfig,
    tables: &[TableSpec],
    rule_ti: usize,
    trans: &[TransitionTable],
) -> Action {
    let rule_table_cols = tables[rule_ti].cols;
    if rng.gen_bool(cfg.p_rollback) {
        return Action::Rollback;
    }
    if rng.gen_bool(cfg.p_observable) {
        let (src, cols) = pick_source(rng, tables, rule_table_cols, trans);
        let where_clause = rng.gen_bool(0.6).then(|| predicate(rng, cols));
        return Action::Select(select_from(src, vec![SelectItem::Wildcard], where_clause));
    }
    let ti = if rng.gen_bool(0.5) {
        rule_ti
    } else {
        rng.gen_range(0..tables.len())
    };
    let target = &tables[ti];
    match rng.gen_range(0..4u32) {
        // insert ... values
        0 => Action::Insert(InsertStmt {
            table: target.name.clone(),
            columns: None,
            source: InsertSource::Values(vec![(0..target.cols).map(|_| lit(rng)).collect()]),
        }),
        // insert ... select (possibly from a transition table — the shape
        // that propagates a transition across tables, the paper's canonical
        // rule body)
        1 => {
            let (src, cols) = pick_source(rng, tables, rule_table_cols, trans);
            let items = (0..target.cols)
                .map(|_| SelectItem::Expr {
                    expr: scalar(rng, cols),
                    alias: None,
                })
                .collect();
            let where_clause = rng.gen_bool(0.5).then(|| predicate(rng, cols));
            Action::Insert(InsertStmt {
                table: target.name.clone(),
                columns: None,
                source: InsertSource::Select(select_from(src, items, where_clause)),
            })
        }
        // update
        2 => {
            let n_sets = rng.gen_range(1..=target.cols.min(2));
            // Distinct SET columns: start at a random column, walk forward.
            let first = rng.gen_range(0..target.cols);
            let sets = (0..n_sets)
                .map(|k| {
                    let cname = format!("c{}", (first + k) % target.cols);
                    // Bias toward `c := k - c`, an involution of the column
                    // being set: two firings restore the value, so a rule
                    // that re-triggers itself closes a 2-cycle in the
                    // execution graph — the provable-nontermination shape.
                    // A generic scalar almost never lands on it.
                    let value = if rng.gen_bool(0.35) {
                        Expr::bin(
                            BinOp::Sub,
                            Expr::int(rng.gen_range(0i64..=3)),
                            Expr::col(&cname),
                        )
                    } else {
                        scalar(rng, target.cols)
                    };
                    (cname, value)
                })
                .collect();
            let where_clause = rng.gen_bool(0.7).then(|| predicate(rng, target.cols));
            Action::Update(UpdateStmt {
                table: target.name.clone(),
                sets,
                where_clause,
            })
        }
        // delete
        _ => Action::Delete(DeleteStmt {
            table: target.name.clone(),
            where_clause: rng.gen_bool(0.8).then(|| predicate(rng, target.cols)),
        }),
    }
}

/// A rule's optional `if` condition: `[not] exists (select * from src
/// [where p])`, over a base table or a legal transition table.
fn gen_condition(
    rng: &mut StdRng,
    tables: &[TableSpec],
    rule_table_cols: usize,
    trans: &[TransitionTable],
) -> Expr {
    let (src, cols) = pick_source(rng, tables, rule_table_cols, trans);
    let where_clause = rng.gen_bool(0.7).then(|| predicate(rng, cols));
    let exists = Expr::Exists(Box::new(select_from(
        src,
        vec![SelectItem::Wildcard],
        where_clause,
    )));
    if rng.gen_bool(0.3) {
        Expr::Not(Box::new(exists))
    } else {
        exists
    }
}

/// The transition predicate: one or two distinct triggering operations.
fn gen_events(rng: &mut StdRng, table_cols: usize) -> Vec<TriggerEvent> {
    let mut kinds = [0u32, 1, 2];
    // Deterministic partial shuffle: pick the first event, then maybe a
    // second distinct one.
    let first = rng.gen_range(0..3usize);
    kinds.swap(0, first);
    let n = if rng.gen_bool(0.3) { 2 } else { 1 };
    let mut events = Vec::new();
    for &k in kinds.iter().take(n) {
        events.push(match k {
            0 => TriggerEvent::Inserted,
            1 => TriggerEvent::Deleted,
            _ => {
                if rng.gen_bool(0.4) {
                    let c = rng.gen_range(0..table_cols);
                    TriggerEvent::Updated(Some(vec![format!("c{c}")]))
                } else {
                    TriggerEvent::Updated(None)
                }
            }
        });
    }
    events
}

/// A user transition: `1..=max_user_actions` plain DML statements, biased
/// toward tables that have rules so most transitions trigger something.
fn gen_transition(
    rng: &mut StdRng,
    cfg: &GenConfig,
    tables: &[TableSpec],
    defs: &[RuleDef],
) -> Vec<Action> {
    let n_user = rng.gen_range(1..=cfg.max_user_actions);
    let mut user_actions = Vec::new();
    for _ in 0..n_user {
        let ti = if !defs.is_empty() && rng.gen_bool(0.8) {
            let def = &defs[rng.gen_range(0..defs.len())];
            tables.iter().position(|t| t.name == def.table).unwrap()
        } else {
            rng.gen_range(0..tables.len())
        };
        let t = &tables[ti];
        user_actions.push(match rng.gen_range(0..3u32) {
            0 => Action::Update(UpdateStmt {
                table: t.name.clone(),
                sets: vec![(
                    format!("c{}", rng.gen_range(0..t.cols)),
                    scalar(rng, t.cols),
                )],
                where_clause: rng.gen_bool(0.5).then(|| predicate(rng, t.cols)),
            }),
            1 => Action::Delete(DeleteStmt {
                table: t.name.clone(),
                where_clause: Some(predicate(rng, t.cols)),
            }),
            _ => Action::Insert(InsertStmt {
                table: t.name.clone(),
                columns: None,
                source: InsertSource::Values(vec![(0..t.cols).map(|_| lit(rng)).collect()]),
            }),
        });
    }
    user_actions
}

/// Generates one case from a seed. Same seed + same config ⇒ identical case.
pub fn generate(seed: u64, cfg: &GenConfig) -> FuzzCase {
    // Decorrelate from other users of the seed (e.g. the harness's own
    // per-case seed derivation).
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf022_ed1c_ab1e_0000);

    let n_tables = rng.gen_range(1..=cfg.max_tables);
    let tables: Vec<TableSpec> = (0..n_tables)
        .map(|i| TableSpec {
            name: format!("t{i}"),
            cols: rng.gen_range(1..=cfg.max_cols),
        })
        .collect();

    let mut rows = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        for _ in 0..rng.gen_range(0..=cfg.max_rows) {
            rows.push((ti, (0..t.cols).map(|_| rng.gen_range(-9i64..=9)).collect()));
        }
    }

    let n_rules = rng.gen_range(cfg.min_rules.clamp(1, cfg.max_rules)..=cfg.max_rules);
    let mut defs: Vec<RuleDef> = Vec::new();
    for r in 0..n_rules {
        let ti = rng.gen_range(0..tables.len());
        let table = &tables[ti];
        let events = gen_events(&mut rng, table.cols);
        let trans = allowed_transitions(&events);
        let condition = rng
            .gen_bool(cfg.p_condition)
            .then(|| gen_condition(&mut rng, &tables, table.cols, &trans));
        let n_actions = rng.gen_range(1..=cfg.max_actions);
        let actions = (0..n_actions)
            .map(|_| gen_action(&mut rng, cfg, &tables, ti, &trans))
            .collect();
        defs.push(RuleDef {
            name: format!("r{r}"),
            table: table.name.clone(),
            events,
            condition,
            actions,
            precedes: Vec::new(),
            follows: Vec::new(),
        });
    }
    // Priority edges, only downward in index order (acyclic by
    // construction). `precedes` on the lower index and `follows` on the
    // higher are the same ordering; generate both spellings to exercise
    // both paths through the priority machinery.
    //
    // Small programs keep the exhaustive pair scan — byte-identical output
    // for every seed under the default config, which the pinned fuzz-corpus
    // reproducers and CI determinism checks rely on. Past
    // [`DENSE_ORDER_LIMIT`] rules the O(n²) scan is replaced by sparse
    // sampling (a few Bernoulli trials per rule, each drawing a random
    // earlier partner), keeping generation O(n) at the 1k–10k-rule scale
    // while producing a comparable per-rule edge density.
    if n_rules <= DENSE_ORDER_LIMIT {
        for i in 0..n_rules {
            for j in (i + 1)..n_rules {
                if rng.gen_bool(cfg.p_order) {
                    if rng.gen_bool(0.5) {
                        let name = defs[j].name.clone();
                        defs[i].precedes.push(name);
                    } else {
                        let name = defs[i].name.clone();
                        defs[j].follows.push(name);
                    }
                }
            }
        }
    } else {
        for j in 1..n_rules {
            for _ in 0..4 {
                if rng.gen_bool(cfg.p_order) {
                    let i = rng.gen_range(0..j);
                    if rng.gen_bool(0.5) {
                        let name = defs[j].name.clone();
                        if !defs[i].precedes.contains(&name) {
                            defs[i].precedes.push(name);
                        }
                    } else {
                        let name = defs[i].name.clone();
                        if !defs[j].follows.contains(&name) {
                            defs[j].follows.push(name);
                        }
                    }
                }
            }
        }
    }

    let user_actions = gen_transition(&mut rng, cfg, &tables, &defs);

    FuzzCase {
        tables,
        rows,
        defs,
        user_actions,
    }
}

/// `k` genuinely independent partitions of five rules each: `k` small
/// generated programs, every table and rule renamed into its partition's
/// namespace (`p3_t0`, `p3_r0`) so that no two share a table. Returns the
/// combined catalog and rule definitions.
pub fn partitioned(k: usize) -> (Catalog, Vec<RuleDef>) {
    // At most two tables keep a partition's five rules one component; the
    // partition tests check that every one is.
    let cfg = GenConfig {
        max_tables: 2,
        max_cols: 2,
        min_rules: 5,
        max_rules: 5,
        max_actions: 2,
        p_order: 0.3,
        p_observable: 0.1,
        p_rollback: 0.0,
        ..GenConfig::default()
    };
    let mut catalog = Catalog::new();
    let mut defs = Vec::new();
    for p in 0..k {
        let case = generate(p as u64, &cfg);
        for schema in case.catalog().tables() {
            let name = format!("p{p}_{}", schema.name);
            catalog
                .add_table(TableSchema::new(name, schema.columns.clone()).expect("same columns"))
                .expect("distinct tables");
        }
        for def in &case.defs {
            let renamed = namespace_tokens(&def.to_string(), p);
            let Ok(Statement::CreateRule(def)) = starling_sql::parse_statement(&renamed) else {
                unreachable!("a renamed rule parses as a rule")
            };
            defs.push(def);
        }
    }
    (catalog, defs)
}

/// Prefixes every `t<digits>` / `r<digits>` identifier token of `script`
/// with `p{p}_`. Generated identifiers are exactly `t<digits>` (tables),
/// `r<digits>` (rules) and `c<digits>` (columns), so a token-boundary scan
/// renames every table and rule of a generated script and nothing else.
pub fn namespace_tokens(script: &str, p: usize) -> String {
    let chars: Vec<char> = script.chars().collect();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(script.len() + 64);
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if (i == 0 || !ident(chars[i - 1])) && (c == 't' || c == 'r') {
            let mut j = i + 1;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && (j == chars.len() || !ident(chars[j])) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(a.script(), b.script(), "seed {seed}");
        }
    }

    #[test]
    fn generated_scripts_load() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let case = generate(seed, &cfg);
            let script = case.script();
            let loaded = starling_analysis::loader::load_script(&script)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{script}"));
            assert_eq!(
                loaded.defs, case.defs,
                "seed {seed}: defs drifted\n{script}"
            );
            assert_eq!(
                loaded.user_actions, case.user_actions,
                "seed {seed}: user transition drifted\n{script}"
            );
            assert!(!loaded.user_actions.is_empty(), "seed {seed}");
        }
    }

    /// Scale configs pin the rule count exactly, compile via the direct
    /// catalog (no script round-trip), and stay deterministic across the
    /// sparse priority-edge path.
    #[test]
    fn scaled_cases_compile_at_exact_size() {
        const N: usize = 200;
        const _: () = assert!(N > DENSE_ORDER_LIMIT);
        let cfg = GenConfig::scaled(N);
        let a = generate(7, &cfg);
        let b = generate(7, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.defs.len(), 200);
        let edges: usize = a
            .defs
            .iter()
            .map(|d| d.precedes.len() + d.follows.len())
            .sum();
        assert!(edges > 0, "sparse sampling produced no priority edges");
        starling_engine::RuleSet::compile(&a.defs, &a.catalog())
            .expect("scaled case compiles (names resolve, priority acyclic)");
    }

    /// FNV-1a over `bytes`, continuing from `h`.
    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The generator's bytes are pinned: one digest over the default
    /// config's scripts for seeds 0..200 (the fuzz campaigns' and the
    /// property suites' shape), and one each for the benchmark's full and
    /// `--check` programs, `scaled(1000)` and `scaled(50)` at seed 42. A
    /// change to any draw shows here, not as a silent shift in every
    /// experiment.
    #[test]
    fn generated_bytes_are_pinned() {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        let script = |seed, cfg: &GenConfig| generate(seed, cfg).script();
        let default = (0..200).fold(BASIS, |h, seed| {
            fnv(h, script(seed, &GenConfig::default()).as_bytes())
        });
        assert_eq!(default, 0x39ba_3b4e_6d4c_ebbf);
        let full = fnv(BASIS, script(42, &GenConfig::scaled(1000)).as_bytes());
        assert_eq!(full, 0x7493_2de0_db4a_65ec);
        let check = fnv(BASIS, script(42, &GenConfig::scaled(50)).as_bytes());
        assert_eq!(check, 0xd927_3ef2_7472_d06d);
    }

    #[test]
    fn drawn_transitions_are_valid_and_vary() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let case = generate(seed, &cfg);
            let catalog = case.catalog();
            let drawn: Vec<_> = (0..8).map(|salt| case.transition(salt, &cfg)).collect();
            for a in drawn.iter().flatten() {
                starling_sql::validate::validate_dml(a, &catalog)
                    .unwrap_or_else(|e| panic!("seed {seed}: {a}: {e}"));
            }
            assert!(drawn.iter().any(|t| t != &drawn[0]), "seed {seed}");
        }
    }

    #[test]
    fn database_holds_the_seed_rows() {
        let case = generate(3, &GenConfig::default());
        let db = case.database();
        assert_eq!(db.total_rows(), case.rows.len());
        assert_eq!(db.catalog(), &case.catalog());
    }

    /// The sparse path only engages above the limit: default-sized programs
    /// still take the historical exhaustive scan (same bytes per seed).
    #[test]
    fn default_config_stays_on_dense_path() {
        assert!(GenConfig::default().max_rules <= DENSE_ORDER_LIMIT);
    }
}
