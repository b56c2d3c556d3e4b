//! Differential and invariant tests for the columnar execution path.
//!
//! Four layers of assurance for PR 7's vectorized kernels:
//!
//! 1. **Curated statement edges** — SELECTs, DELETEs, and UPDATEs aimed
//!    squarely at the vector kernels (3VL comparisons, NULL validity,
//!    BETWEEN/IN/LIKE, boolean columns, float columns on the `Mixed`
//!    representation, and fallible conjuncts that force the per-row
//!    fallback) must agree byte-for-byte across [`PlanMode::Columnar`],
//!    [`PlanMode::Row`], and the AST interpreter — including *which* error
//!    wins when evaluation fails.
//! 2. **Exploration graphs** — corpus, condition-stress, scale (small
//!    instance), and seeded-random workloads explored under all three
//!    [`EvalMode`]s must produce identical graphs and final-state digests.
//! 3. **Bitmap/Kleene invariants** — the packed selection vectors keep
//!    their past-the-end bits zero under every combinator, and
//!    [`Bool3`]'s true/false bitmaps stay disjoint under NOT/AND/OR
//!    (exactly Kleene's tables, element-wise).
//! 4. **Cached columnar views** — each table's lazily built chunk batches
//!    must mirror `Table::iter` exactly across copy-on-write snapshots and
//!    mutations (a written chunk's batch is invalidated, never shared
//!    stale), on one-chunk and multi-chunk tables alike.
//! 5. **Memoized selections** — a rule's per-chunk selections, kept in the
//!    chunk's batch, are transparent: explores that run on memo hits, and
//!    explores on threads racing to fill the memo, give the graphs every
//!    mode gives, and a write drops what it invalidates.

use std::ops::Not;

use starling::analysis::load_script;
use starling::engine::{explore, explore_with_mode, EvalMode, ExecGraph, ExploreConfig, RuleSet};
use starling::sql::ast::{Action, Statement};
use starling::sql::eval::expr::eval_bool;
use starling::sql::eval::{eval_select, exec_action, ActionOutcome, Env, EvalCtx};
use starling::sql::plan::vector::Bool3;
use starling::sql::plan::{
    compile_action, compile_condition, compile_select, eval_condition, execute_action,
    execute_select, PlanMode,
};
use starling::sql::{parse_expr, parse_statement};
use starling::storage::{
    Bitmap, ColumnDef, Database, TableBatch, TableSchema, TupleId, Value, ValueType,
};
use starling::workloads::cond_stress::CondStress;
use starling::workloads::{corpus, random, CorpusEntry};

/// Fixture exercising every column representation: `Int` (non-null ints),
/// `Bool` (nullable bools), `Mixed` (a float column that also holds ints —
/// `ValueType::Float` accepts both variants), and `Str`, plus NULLs in
/// every nullable column and a zero for division errors.
fn fixture() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "w",
            vec![
                ColumnDef::new("i", ValueType::Int),
                ColumnDef::nullable("flag", ValueType::Bool),
                ColumnDef::nullable("f", ValueType::Float),
                ColumnDef::nullable("s", ValueType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "k",
            vec![
                ColumnDef::new("i", ValueType::Int),
                ColumnDef::nullable("j", ValueType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let s = |x: &str| Value::Str(x.to_owned());
    let rows = [
        (0, Value::Bool(true), Value::Float(0.5), s("abc")),
        (1, Value::Null, Value::Int(2), s("a%c")),
        (2, Value::Bool(false), Value::Float(2.5), Value::Null),
        (3, Value::Bool(true), Value::Null, s("xyz")),
        (4, Value::Null, Value::Float(-1.0), s("ab")),
    ];
    for (i, flag, f, sv) in rows {
        db.insert("w", vec![Value::Int(i), flag, f, sv]).unwrap();
    }
    let rows_k = [
        (1, Value::Int(1)),
        (2, Value::Null),
        (3, Value::Int(0)),
        (1, Value::Int(4)),
    ];
    for (i, j) in rows_k {
        db.insert("k", vec![Value::Int(i), j]).unwrap();
    }
    db
}

fn assert_select_agrees(sql: &str, db: &Database) {
    let Statement::Dml(Action::Select(sel)) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}");
    };
    let ctx = EvalCtx {
        db,
        transitions: None,
    };
    let mut env = Env::new(&ctx);
    let interp = eval_select(&sel, &mut env);
    let (plan, slots) = compile_select(&sel, db.catalog(), None).unwrap();
    for mode in [PlanMode::Columnar, PlanMode::Row] {
        let planned = execute_select(&plan, slots, db, None, mode);
        match (&interp, planned) {
            (Ok(a), Ok(b)) => assert_eq!(*a, b, "{sql} [{mode:?}]: results diverge"),
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "{sql} [{mode:?}]: errors diverge"
            ),
            (a, b) => panic!("{sql} [{mode:?}]: interp {a:?} vs plan {b:?}"),
        }
    }
}

fn assert_action_agrees(sql: &str, db: &Database) {
    let Statement::Dml(action) = parse_statement(sql).unwrap() else {
        panic!("not DML: {sql}");
    };
    let mut db_interp = db.clone();
    let interp = exec_action(&action, &mut db_interp, None);
    let plan = compile_action(&action, db.catalog(), None).unwrap();
    for mode in [PlanMode::Columnar, PlanMode::Row] {
        let mut db_plan = db.clone();
        let planned = execute_action(&plan, &mut db_plan, None, mode);
        match (&interp, planned) {
            (Ok(x), Ok(y)) => assert_eq!(*x, y, "{sql} [{mode:?}]: outcomes diverge"),
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "{sql} [{mode:?}]: errors diverge"
            ),
            (x, y) => panic!("{sql} [{mode:?}]: interp {x:?} vs plan {y:?}"),
        }
        assert_eq!(
            db_interp.state_digest(),
            db_plan.state_digest(),
            "{sql} [{mode:?}]: final states diverge"
        );
    }
}

/// The curated kernel edges: every comparison kind over every column
/// representation, 3VL corners, and predicates the vectorizer must refuse.
#[test]
fn curated_selects_agree_across_modes() {
    let db = fixture();
    let cases = [
        // Int kernels, strict and soft comparisons.
        "select i from w where i > 1",
        "select i from w where i >= 2 and i < 4",
        "select i from w where i <> 2",
        // Bool column: direct use as a predicate, plus 3VL around NULLs.
        "select i from w where flag",
        "select i from w where not flag",
        "select i from w where flag is null",
        "select i from w where flag or i > 3",
        "select i from w where flag and i > 0",
        // Float (Mixed representation): Int and Float variants compare by
        // value even though they differ structurally.
        "select i from w where f > 1",
        "select i from w where f = 2",
        "select i from w where f < 0.6",
        "select i from w where f is not null and f <= 2.5",
        // NULL validity through BETWEEN / IN / NOT IN.
        "select i from w where f between 0 and 2",
        "select i from w where f not between 0 and 2",
        "select i from w where i in (1, 3)",
        "select i from w where f in (2, 0.5)",
        "select i from w where f not in (2, 0.5)",
        // LIKE over a nullable string column, wildcard corners included.
        "select i from w where s like 'a%'",
        "select i from w where s like 'a_c'",
        "select i from w where s not like '%b%'",
        "select i from w where s like 'a%c' or s is null",
        // Kleene conjunction/disjunction mixing UNKNOWN sources.
        "select i from w where flag or f > 1",
        "select i from w where not (flag and f > 1)",
        "select i from w where flag is not null and s is not null",
        // Constant predicates: uniform selections, both polarities.
        "select i from w where true",
        "select i from w where false",
        "select i from w where null",
        "select i from w where 1 < 2 and i > 2",
        // Non-vectorizable conjuncts alongside vectorizable ones: the
        // arithmetic is fallible, so it stays row-at-a-time while `i > 0`
        // vectorizes — and the division error at i = 0 must surface
        // identically in every mode.
        "select i from w where i + 1 > 2 and i > 0",
        "select i from w where 10 / i > 2",
        "select i from w where i > 0 and 10 / i > 2",
        // Joins with a vectorized pushdown on the probe side.
        "select w.i, k.j from w, k where w.i = k.i and w.i > 0",
        "select w.i, k.j from w, k where w.i = k.i and k.j is not null",
        "select a.i, b.i from k a, k b where a.i = b.i and a.j < b.j",
        // Subqueries: a correlated EXISTS probes `k` by the outer row.
        "select i from w where exists (select * from k where k.i = w.i)",
        "select i from w where i in (select i from k where j is not null)",
    ];
    for sql in cases {
        assert_select_agrees(sql, &db);
    }
}

/// DML through the columnar scan: DELETE/UPDATE predicates classified as
/// vectorizable run through the batch filter, fallible ones fall back —
/// both must replay the interpreter exactly, partial-failure state
/// included.
#[test]
fn curated_actions_agree_across_modes() {
    let db = fixture();
    let cases = [
        "delete from w where i > 2",
        "delete from w where flag",
        "delete from w where f not between 0 and 2",
        "delete from w where s like '%b%' or s is null",
        "delete from w where 10 / i > 2",
        "update w set i = i + 10 where flag is null",
        "update w set s = 'hit' where f > 1",
        "update w set f = 0 where i in (1, 4)",
        "update k set j = j + 1 where j is not null",
        "update w set i = 10 / i where i >= 0",
    ];
    for sql in cases {
        assert_action_agrees(sql, &db);
    }
}

// ---------------------------------------------------------------------------
// Exploration graphs under all three evaluation modes.
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

/// Corpus, condition-stress, small-scale, and random workloads explore to
/// identical graphs under columnar, row-plan, and interpreter evaluation.
#[test]
fn exploration_graphs_agree_across_modes() {
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);

    let mut cases: Vec<(String, RuleSet, Database, Vec<Action>)> = Vec::new();

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
        let Statement::Dml(action) = parse_statement("insert into t values (1)").unwrap() else {
            unreachable!()
        };
        cases.push((format!("corpus/{}", entry.name), rules, db, vec![action]));
    }

    // The condition-heavy workload at two sizes.
    for (name, size) in [
        (
            "cond",
            CondStress {
                rows: 2_002,
                fan: 3,
            },
        ),
        ("cond_small", CondStress { rows: 122, fan: 2 }),
    ] {
        for (flavor, rules) in [
            ("eq_join", size.join_rules()),
            ("scan_filter", size.filter_rules()),
        ] {
            cases.push((
                format!("{name}/{flavor}"),
                rules,
                size.database(),
                size.user_actions(),
            ));
        }
    }

    // And once over a `big` of several storage chunks that the rules
    // themselves rewrite, so every state holds a table version of its own.
    let chunked = CondStress {
        rows: 4_102,
        fan: 3,
    };
    let db = chunked.database();
    let big = db.table("big").unwrap();
    assert!(big.chunks_shared_with(big).1 >= 4, "big spans chunks");
    cases.push((
        "cond_chunks/write".to_owned(),
        chunked.write_rules(),
        db,
        chunked.user_actions(),
    ));

    for seed in 0..8u64 {
        let w = random::generate(&random::RandomConfig {
            seed,
            n_rules: 5,
            ..random::RandomConfig::default()
        });
        let rules = w.compile();
        let db = w.seed_database();
        let actions = w.user_transition(0xc01a);
        cases.push((format!("random/seed{seed}"), rules, db, actions));
    }

    for (name, rules, db, actions) in &cases {
        let columnar = graph_fingerprint(rules, db, actions, &cfg, EvalMode::Columnar, name);
        let row = graph_fingerprint(rules, db, actions, &cfg, EvalMode::Plan, name);
        let interp = graph_fingerprint(rules, db, actions, &cfg, EvalMode::Interp, name);
        assert_eq!(columnar, row, "{name}: columnar vs row-plan graphs diverge");
        assert_eq!(
            columnar, interp,
            "{name}: columnar vs interp graphs diverge"
        );
    }
}

// ---------------------------------------------------------------------------
// Bitmap and Kleene-vector invariants.
// ---------------------------------------------------------------------------

/// A deterministic pseudo-random bitmap (xorshift — no external RNG).
fn pattern(len: usize, mut seed: u64) -> Bitmap {
    let mut b = Bitmap::zeros(len);
    for i in 0..len {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        b.set(i, seed & 1 == 1);
    }
    b
}

/// Every one-position a combinator reports must be in-bounds, and the
/// population count must match a per-element scan — together these pin the
/// "past-the-end bits are zero" representation invariant (a stray tail bit
/// would surface through `iter_ones`, `count_ones`, or double-`not`).
#[test]
fn bitmap_tail_bits_stay_zero() {
    for len in [0usize, 1, 7, 63, 64, 65, 127, 128, 130] {
        let a = pattern(len, 0x9e3779b97f4a7c15 ^ len as u64);
        let b = pattern(len, 0x2545f4914f6cdd1d ^ len as u64);
        let mut and = a.clone();
        and.and_assign(&b);
        let mut or = a.clone();
        or.or_assign(&b);
        for (what, m) in [
            ("ones", Bitmap::ones(len)),
            ("not", a.not()),
            ("and", and),
            ("or", or),
            ("not-not", a.not().not()),
        ] {
            assert!(
                m.iter_ones().all(|i| i < len),
                "{what}/{len}: out-of-bounds one-position"
            );
            let scanned = (0..len).filter(|&i| m.get(i)).count();
            assert_eq!(m.count_ones(), scanned, "{what}/{len}: popcount mismatch");
            assert_eq!(m.any(), scanned > 0, "{what}/{len}: any() mismatch");
        }
        assert_eq!(a.not().not(), a, "{len}: double negation must round-trip");
        assert_eq!(Bitmap::ones(len).count_ones(), len);
    }
}

/// [`Bool3`]'s `t`/`f` bitmaps are disjoint by construction and stay
/// disjoint under NOT/AND/OR, which follow Kleene's tables element-wise.
#[test]
fn bool3_combinators_stay_disjoint_and_kleene() {
    let len = 130;
    // Three-valued element: t-bit wins, else f-bit, else UNKNOWN.
    let tri = |v: &Bool3, i: usize| -> Option<bool> {
        if v.t.get(i) {
            Some(true)
        } else if v.f.get(i) {
            Some(false)
        } else {
            None
        }
    };
    let disjoint = |v: &Bool3, what: &str| {
        let mut overlap = v.t.clone();
        overlap.and_assign(&v.f);
        assert!(!overlap.any(), "{what}: t and f overlap");
    };
    // Arbitrary disjoint three-valued vectors from seeded patterns.
    let make = |s1: u64, s2: u64| -> Bool3 {
        let t = pattern(len, s1);
        let mut f = pattern(len, s2);
        f.and_assign(&t.not());
        Bool3 { t, f }
    };
    let a = make(0xdead_beef, 0xfeed_f00d);
    let b = make(0x0123_4567, 0x89ab_cdef);
    disjoint(&a, "a");
    disjoint(&b, "b");

    let not_a = a.clone().not();
    let and = a.clone().and(&b);
    let or = a.clone().or(&b);
    disjoint(&not_a, "not a");
    disjoint(&and, "a and b");
    disjoint(&or, "a or b");

    for i in 0..len {
        let (x, y) = (tri(&a, i), tri(&b, i));
        assert_eq!(tri(&not_a, i), x.map(|v| !v), "not, element {i}");
        // Kleene AND: false dominates, then unknown.
        let expect_and = match (x, y) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        assert_eq!(tri(&and, i), expect_and, "and, element {i}");
        // Kleene OR: true dominates, then unknown.
        let expect_or = match (x, y) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        };
        assert_eq!(tri(&or, i), expect_or, "or, element {i}");
    }

    // The uniform/unknown constructors hit the same invariants at the
    // boundaries.
    disjoint(&Bool3::unknown(len), "unknown");
    disjoint(&Bool3::uniform(len, true), "uniform true");
    disjoint(&Bool3::uniform(len, false), "uniform false");
    assert_eq!(Bool3::uniform(len, true).t.count_ones(), len);
    assert_eq!(Bool3::uniform(len, false).f.count_ones(), len);
}

// ---------------------------------------------------------------------------
// Cached columnar views under copy-on-write mutation.
// ---------------------------------------------------------------------------

/// The columnar view of `table` must replay `Table::iter` exactly: same
/// tuple ids in scan order, same row values, same NULL positions.
fn assert_view_matches(db: &Database, table: &str, what: &str) {
    let tbl = db.table(table).unwrap();
    tbl.check_invariants();
    let expected: Vec<(TupleId, Vec<Value>)> = tbl.iter().map(|(id, r)| (id, r.clone())).collect();
    let got: Vec<(TupleId, Vec<Value>)> = tbl
        .columnar()
        .batches()
        .flat_map(|batch| (0..batch.len()).map(move |pos| (batch.ids()[pos], batch.row(pos))))
        .collect();
    assert_eq!(got, expected, "{what}: columnar view diverges from rows");
}

/// Columnar views across a CoW mutation storm: every mutation kind, with a
/// snapshot held across the writes — the snapshot's view must keep showing
/// the old rows while the writer's view tracks each change.
#[test]
fn columnar_view_tracks_cow_mutation() {
    let mut db = fixture();
    assert_view_matches(&db, "w", "initial");
    assert_view_matches(&db, "k", "initial");

    let snapshot = db.clone();
    let snap_digest = snapshot.state_digest();

    // Insert, update, delete against the live handle.
    let id = db
        .insert(
            "w",
            vec![Value::Int(9), Value::Bool(false), Value::Null, Value::Null],
        )
        .unwrap();
    assert_view_matches(&db, "w", "after insert");
    db.update(
        "w",
        id,
        vec![
            Value::Int(10),
            Value::Null,
            Value::Float(3.5),
            Value::Str("z".into()),
        ],
    )
    .unwrap();
    assert_view_matches(&db, "w", "after update");
    let victim = db.table("w").unwrap().ids()[0];
    db.delete("w", victim).unwrap();
    assert_view_matches(&db, "w", "after delete");

    // A failed mutation must not disturb the view (or the snapshot).
    let wrong_arity = db.insert("w", vec![Value::Int(1)]);
    assert!(wrong_arity.is_err());
    assert_view_matches(&db, "w", "after failed insert");

    // The snapshot still sees the original five rows.
    assert_eq!(snapshot.state_digest(), snap_digest);
    assert_view_matches(&snapshot, "w", "snapshot after writer mutations");
    assert_eq!(snapshot.table("w").unwrap().len(), 5);
    assert_eq!(db.table("w").unwrap().len(), 5);
    assert_view_matches(&db, "k", "untouched table");

    // The same over several chunks: writes at chunk edges and in chunk
    // middles, a run of deletes across an edge, and a logged id replayed
    // into the gap — each rebuilds the touched chunk's batch only.
    for i in 0..3_000 {
        db.insert("k", vec![Value::Int(i), Value::Null]).unwrap();
    }
    assert_view_matches(&db, "k", "grown");
    let snapshot = db.clone();
    let snap_digest = snapshot.state_digest();
    let ids = db.table("k").unwrap().ids();
    for at in [0, 1_023, 1_024, 1_500, 2_047, 2_048, ids.len() - 1] {
        db.update_column("k", ids[at], "j", Value::Int(at as i64))
            .unwrap();
        assert_view_matches(&db, "k", "after an update in a grown table");
    }
    for &id in &ids[1_020..1_030] {
        db.delete("k", id).unwrap();
    }
    assert_view_matches(&db, "k", "after deletes across a chunk edge");
    db.insert_with_id("k", ids[1_025], vec![Value::Int(-1), Value::Null])
        .unwrap();
    assert_view_matches(&db, "k", "after a replayed insert");
    let (shared, total) = db
        .table("k")
        .unwrap()
        .chunks_shared_with(snapshot.table("k").unwrap());
    assert!(
        total >= 3 && shared == 0,
        "every chunk was written: {shared}/{total}"
    );
    assert_eq!(snapshot.state_digest(), snap_digest);
    assert_view_matches(&snapshot, "k", "grown snapshot after writer mutations");
    assert_eq!(snapshot.table("k").unwrap().len(), ids.len());
}

// ---------------------------------------------------------------------------
// Memoized per-chunk selections.
// ---------------------------------------------------------------------------

/// Selections memoized in each chunk batch of `big`.
fn memoized(db: &Database) -> Vec<usize> {
    let batches = db.table("big").unwrap().columnar().batches();
    batches.map(TableBatch::memoized).collect()
}

/// The shape of `explore_bigwrite` over `chunks` full chunks: a linear
/// cascade whose rule `w{i}` joins its transition table to `big`, scans
/// `big` to its end, and rewrites ten rows of chunk `i` — one rewritten
/// chunk per state.
fn bigwrite(chunks: i64) -> (RuleSet, Database, Vec<Action>) {
    let rows = 1024 * chunks;
    let mut s = String::from("create table big (k int, v int);\n");
    for i in 0..chunks {
        s.push_str(&format!("create table step{i} (x int);\n"));
    }
    for i in 1..chunks {
        let slice = 1024 * i + 100;
        s.push_str(&format!(
            "create rule w{i} on step{prev} when inserted \
               if exists (select * from inserted i, big b where b.k = i.x and b.v < 100) \
                  and exists (select * from big where v > 8 and k > {last}) \
               then update big set v = -{i} where k >= {slice} and k < {end}; \
                    insert into step{i} values ({next}) end;\n",
            prev = i - 1,
            last = rows - 11,
            end = slice + 10,
            next = 1024 * i + 500,
        ));
    }
    s.push_str("insert into step0 values (7);\n");
    let loaded = load_script(&s).unwrap();
    let mut db = loaded.db;
    for k in 0..rows {
        db.insert("big", vec![Value::Int(k), Value::Int(k % 10)])
            .unwrap();
    }
    ((*loaded.rules).clone(), db, loaded.user_actions)
}

/// Explores racing on one `Database` — as server workers share a cached
/// program's tables across sessions — fill its fresh memo and each give
/// the graph a lone explore gives; later explores on that `Database` run
/// on the memo, all hits, and give the graphs and final digests every mode
/// gives.
#[test]
fn memoized_selections_are_transparent_across_explores() {
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);
    let chunked = CondStress {
        rows: 4_102,
        fan: 3,
    };
    let cases = [
        (
            "cond_chunks/write",
            (
                chunked.write_rules(),
                chunked.database(),
                chunked.user_actions(),
            ),
        ),
        ("bigwrite", bigwrite(5)),
    ];
    for (name, (rules, db, actions)) in &cases {
        let fingerprint =
            |mode, what: &str| graph_fingerprint(rules, db, actions, &cfg, mode, what);
        // Threads first, released together, so they race on an empty memo.
        let start = std::sync::Barrier::new(3);
        let racing: Vec<ExecGraph> = std::thread::scope(|s| {
            let explores: Vec<_> = (0..3)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        explore(rules, db, actions, &cfg).unwrap()
                    })
                })
                .collect();
            explores.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let filled = memoized(db);
        assert!(filled.iter().any(|&n| n > 0), "{name}: memo unused");

        // Every key a lone explore asks for is already there: all hits.
        let alone = explore(rules, db, actions, &cfg).unwrap();
        assert_eq!(memoized(db), filled, "{name}: a lone explore missed");
        for g in &racing {
            assert_eq!(g, &alone, "{name}: racing vs lone graphs diverge");
        }
        let first = fingerprint(EvalMode::Columnar, name);
        let row = fingerprint(EvalMode::Plan, name);
        let interp = fingerprint(EvalMode::Interp, name);
        assert_eq!(memoized(db), filled, "{name}: a repeated explore missed");
        for (what, other) in [("row-plan", &row), ("interp", &interp)] {
            assert_eq!(&first, other, "{name}: columnar vs {what} graphs diverge");
        }
    }

    // The bigwrite shape rewrites one chunk per state, and only that one;
    // a chunk no rule writes keeps one selection per condition source and
    // one per rule's update.
    let (rules, db, actions) = &cases[1].1;
    assert_eq!(memoized(db)[0], 2 + 4);
    let g = explore_with_mode(rules, db, actions, &cfg, EvalMode::Columnar).unwrap();
    let (_, last) = g.final_dbs.first().unwrap();
    let (shared, total) = last
        .table("big")
        .unwrap()
        .chunks_shared_with(db.table("big").unwrap());
    assert_eq!((shared, total), (1, 5), "one chunk rewritten per rule");
}

/// A write to a memoized full chunk drops its batch and with it every
/// selection: the predicate's answer flips, in place and through a
/// copy-on-write snapshot alike, while the unwritten version keeps its
/// memo and its answer.
#[test]
fn a_write_drops_the_selections_of_the_chunk_it_touches() {
    let (_, base, _) = bigwrite(3);
    let cond = parse_expr("exists (select * from big where v = 100 and k < 2000)").unwrap();
    let plan = compile_condition(&cond, base.catalog(), Some("big")).unwrap();
    let Statement::Dml(delete) = parse_statement("delete from big where v = 100").unwrap() else {
        unreachable!()
    };
    let delete = compile_action(&delete, base.catalog(), Some("big")).unwrap();
    let check = |db: &Database, want: bool, what: &str| {
        let ctx = EvalCtx {
            db,
            transitions: None,
        };
        let interp = eval_bool(&cond, &mut Env::new(&ctx)).unwrap();
        for mode in [PlanMode::Columnar, PlanMode::Row] {
            let got = eval_condition(&plan, db, None, mode).unwrap();
            assert_eq!(got, interp, "{what} [{mode:?}]");
        }
        assert_eq!(interp, Value::Bool(want), "{what}");
    };

    check(&base, false, "before");
    assert_eq!(memoized(&base), [1, 1, 1]);
    let mut db = base.clone();
    let id = db.table("big").unwrap().ids()[5];
    db.update("big", id, vec![Value::Int(5), Value::Int(100)])
        .unwrap();
    assert_eq!(memoized(&db), [0, 1, 1], "the written chunk starts over");
    check(&db, true, "after a write through a snapshot");
    check(&base, false, "the snapshot's own version");
    assert_eq!(memoized(&base), [1, 1, 1]);

    // The rule action's keyed scan sees the flip too, then the flip back
    // in place.
    let mut undone = db.clone();
    let outcome = execute_action(&delete, &mut undone, None, PlanMode::Columnar).unwrap();
    assert!(matches!(outcome, ActionOutcome::Effects(e) if e.len() == 1));
    check(&undone, false, "after the rule action deleted it");
    let mut in_place = db;
    in_place
        .update("big", id, vec![Value::Int(5), Value::Int(5)])
        .unwrap();
    check(&in_place, false, "after an in-place write back");
    let mut none = base.clone();
    let outcome = execute_action(&delete, &mut none, None, PlanMode::Columnar).unwrap();
    assert!(matches!(outcome, ActionOutcome::Effects(e) if e.is_empty()));
}
