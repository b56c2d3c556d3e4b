//! Property tests for the copy-on-write snapshot layer, the incremental
//! per-table digest cache, and explores sharing one database across
//! threads:
//!
//! * a CoW clone plus divergent mutation is observationally equal to a deep
//!   copy — the snapshot never sees writes through the other handle, and
//!   both sides digest as if fully independent;
//! * the incrementally maintained per-table content digest always equals a
//!   from-scratch recompute, under arbitrary insert/update/delete
//!   sequences;
//! * a table spanning several storage chunks agrees with a plain
//!   `BTreeMap` model — rows, digests, columnar view, join-index probes,
//!   held snapshots — after every write that lands on, splits, empties or
//!   merges chunks, and after every failed one; and a probe of an `Int`,
//!   `Str` or `Bool` column's index equals a linear scan of the row store;
//! * explores racing on one database over a multi-chunk table the rules
//!   rewrite each produce the graph a lone explore does.

use std::collections::BTreeMap;

use proptest::prelude::*;

use starling::engine::{explore, ExploreConfig};
use starling::storage::{
    CanonicalDigest, ColumnDef, CommitDelta, Database, FaultPlan, FaultSpec, Row, RowOp, Table,
    TableBatch, TableSchema, TupleId, Value, ValueType,
};
use starling::workloads::cond_stress::CondStress;

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// One randomized storage operation against a two-column table picked by
/// index; delete/update target a row by rank so they stay valid whatever
/// ids previous operations produced.
#[derive(Clone, Debug)]
enum StorageOp {
    Insert { table: usize, a: i64, b: i64 },
    Update { table: usize, rank: usize, a: i64 },
    Delete { table: usize, rank: usize },
}

fn storage_ops() -> impl Strategy<Value = Vec<StorageOp>> {
    let op =
        prop_oneof![
            (0..TABLES.len(), -50i64..50, -50i64..50).prop_map(|(table, a, b)| StorageOp::Insert {
                table,
                a,
                b
            }),
            (0..TABLES.len(), 0usize..8, -50i64..50)
                .prop_map(|(table, rank, a)| StorageOp::Update { table, rank, a }),
            (0..TABLES.len(), 0usize..8)
                .prop_map(|(table, rank)| StorageOp::Delete { table, rank }),
        ];
    proptest::collection::vec(op, 0..40)
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    for name in TABLES {
        db.create_table(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    }
    db
}

fn apply(db: &mut Database, op: &StorageOp) {
    match *op {
        StorageOp::Insert { table, a, b } => {
            db.insert(TABLES[table], vec![Value::Int(a), Value::Int(b)])
                .unwrap();
        }
        StorageOp::Update { table, rank, a } => {
            let ids = db.table(TABLES[table]).unwrap().ids();
            if ids.is_empty() {
                return;
            }
            let id = ids[rank % ids.len()];
            db.update_column(TABLES[table], id, "a", Value::Int(a))
                .unwrap();
        }
        StorageOp::Delete { table, rank } => {
            let ids = db.table(TABLES[table]).unwrap().ids();
            if ids.is_empty() {
                return;
            }
            db.delete(TABLES[table], ids[rank % ids.len()]).unwrap();
        }
    }
}

/// An id-faithful deep copy built through the public API — what `clone()`
/// used to cost before copy-on-write, used as the observational reference.
fn deep_copy(db: &Database) -> Database {
    let mut out = Database::new();
    for t in db.tables() {
        out.create_table(t.schema().clone()).unwrap();
        for (id, row) in t.iter() {
            out.insert_with_id(t.name(), id, row.clone()).unwrap();
        }
    }
    out
}

/// One table's rows with ids, in scan order.
type TableDump = Vec<(TupleId, Vec<Value>)>;

/// Full observable dump: every table's rows with ids, in scan order.
fn dump(db: &Database) -> Vec<(String, TableDump)> {
    db.tables()
        .map(|t| {
            (
                t.name().to_owned(),
                t.iter().map(|(id, row)| (id, row.clone())).collect(),
            )
        })
        .collect()
}

/// One write against the multi-chunk table `c`. Targets are ranks in
/// thousandths of the table, runs likewise, so they land on, straddle and
/// swallow chunks whatever the chunk size.
#[derive(Clone, Debug)]
enum ChunkOp {
    Append {
        n: usize,
        a: i64,
    },
    /// `insert_with_id` just above the ranked tuple: a mid-table id.
    InsertAbove {
        rank: usize,
        a: i64,
    },
    Update {
        rank: usize,
        a: i64,
    },
    UpdateColumn {
        rank: usize,
        b: Option<i64>,
    },
    DeleteRun {
        rank: usize,
        run: usize,
    },
    /// An operation that must fail and leave no trace.
    Fail {
        kind: usize,
        rank: usize,
    },
    /// Hold another snapshot across the following writes (three at most).
    Snapshot,
}

fn chunk_ops() -> impl Strategy<Value = Vec<ChunkOp>> {
    let rank = || 0usize..1000;
    let op = prop_oneof![
        (1usize..40, 0i64..6).prop_map(|(n, a)| ChunkOp::Append { n, a }),
        (rank(), 0i64..6).prop_map(|(rank, a)| ChunkOp::InsertAbove { rank, a }),
        (rank(), 0i64..6).prop_map(|(rank, a)| ChunkOp::Update { rank, a }),
        (rank(), -1i64..6).prop_map(|(rank, b)| ChunkOp::UpdateColumn {
            rank,
            b: (b >= 0).then_some(b)
        }),
        (rank(), 1usize..400).prop_map(|(rank, run)| ChunkOp::DeleteRun { rank, run }),
        (0usize..6, rank()).prop_map(|(kind, rank)| ChunkOp::Fail { kind, rank }),
        Just(ChunkOp::Snapshot),
    ];
    proptest::collection::vec(op, 1..14)
}

type Model = BTreeMap<TupleId, Row>;

fn int_or_null(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

/// `c(a int, b int null)` grown, with gaps between ids, until it spans four
/// chunks; and the model of it.
fn multi_chunk_table() -> (Database, Model) {
    let mut db = Database::new();
    let schema = TableSchema::new(
        "c",
        vec![
            ColumnDef::new("a", ValueType::Int),
            ColumnDef::nullable("b", ValueType::Int),
        ],
    );
    db.create_table(schema.unwrap()).unwrap();
    let mut model = Model::new();
    while chunks(db.table("c").unwrap()) < 4 {
        let id = TupleId(db.next_tuple_id() + 2);
        let row = vec![
            Value::Int(id.0 as i64 % 6),
            int_or_null((!id.0.is_multiple_of(5)).then_some(id.0 as i64 % 4)),
        ];
        db.insert_with_id("c", id, row.clone()).unwrap();
        model.insert(id, row);
    }
    (db, model)
}

fn chunks(t: &Table) -> usize {
    t.chunks_shared_with(t).1
}

/// Applies `op` to both the table and the model.
fn apply_chunk_op(db: &mut Database, model: &mut Model, op: &ChunkOp) {
    let ids: Vec<TupleId> = model.keys().copied().collect();
    let ranked = |rank: usize| ids.get(ids.len() * rank / 1000).copied();
    match *op {
        ChunkOp::Append { n, a } => {
            for _ in 0..n {
                let row = vec![Value::Int(a), Value::Null];
                let id = db.insert("c", row.clone()).unwrap();
                model.insert(id, row);
            }
        }
        ChunkOp::InsertAbove { rank, a } => {
            let Some(below) = ranked(rank) else { return };
            let id = TupleId(below.0 + 1);
            let row = vec![Value::Int(a), Value::Int(a)];
            let inserted = db.insert_with_id("c", id, row.clone());
            assert_eq!(inserted.is_ok(), !model.contains_key(&id));
            model.entry(id).or_insert(row);
        }
        ChunkOp::Update { rank, a } => {
            let Some(id) = ranked(rank) else { return };
            let row = vec![Value::Int(a), Value::Int(a + 1)];
            let old = db.update("c", id, row.clone()).unwrap();
            assert_eq!(Some(old), model.insert(id, row));
        }
        ChunkOp::UpdateColumn { rank, b } => {
            let Some(id) = ranked(rank) else { return };
            let old = db.update_column("c", id, "b", int_or_null(b)).unwrap();
            let row = model.get_mut(&id).unwrap();
            assert_eq!(old, *row);
            row[1] = int_or_null(b);
        }
        ChunkOp::DeleteRun { rank, run } => {
            let from = ids.len() * rank / 1000;
            let to = (ids.len() * (rank + run) / 1000).min(ids.len());
            for &id in &ids[from..to] {
                assert_eq!(Some(db.delete("c", id).unwrap()), model.remove(&id));
            }
        }
        ChunkOp::Fail { kind, rank } => {
            let Some(id) = ranked(rank) else { return };
            let before = db.clone();
            let missing = TupleId(u64::MAX - rank as u64);
            let good = || vec![Value::Int(0), Value::Null];
            let failed = match kind {
                0 => db.insert_with_id("c", id, good()).is_err(),
                1 => db.insert("c", vec![Value::Int(0)]).is_err(),
                2 => db.update("c", missing, good()).is_err(),
                3 => db.delete("c", missing).is_err(),
                4 => db.update_column("c", id, "zz", Value::Int(0)).is_err(),
                _ => db.update_column("c", id, "a", Value::Null).is_err(),
            };
            assert!(failed, "{op:?} must fail");
            let (t, was) = (db.table("c").unwrap(), before.table("c").unwrap());
            assert!(t.shares_storage_with(was), "{op:?} unshared the root");
            assert_eq!(t.chunks_shared_with(was), (chunks(t), chunks(t)));
            assert_eq!(db.next_tuple_id(), before.next_tuple_id());
        }
        ChunkOp::Snapshot => {}
    }
}

/// Everything observable about `t` equals the model: scan order, point
/// lookups, digests, structure, the columnar view and every index probe.
fn assert_table_matches(t: &Table, model: &Model) {
    t.check_invariants();
    assert_eq!(t.len(), model.len());
    assert!(t.iter().eq(model.iter().map(|(id, row)| (*id, row))));
    assert!(t.ids().iter().eq(model.keys()));
    for (id, row) in model.iter().step_by(97) {
        assert_eq!(t.get(*id), Some(row));
        assert_eq!(
            t.contains(TupleId(id.0 + 1)),
            model.contains_key(&TupleId(id.0 + 1))
        );
    }
    assert_eq!(t.content_digest(), t.recompute_content_digest());

    let view = t.columnar();
    let replayed = view
        .batches()
        .flat_map(|b| (0..b.len()).map(move |pos| (b.ids()[pos], b.row(pos))));
    assert!(replayed.eq(model.iter().map(|(id, row)| (*id, row.clone()))));
    for col in 0..2 {
        view.hash_index(col);
        let other_variants = [Value::Null, Value::Bool(true), Value::str("1")];
        for key in (-1..7).map(Value::Int).chain(other_variants) {
            let hits = probe_all(t, col, &key);
            let expected: Vec<TupleId> = model
                .iter()
                .filter(|(_, row)| !key.is_null() && row[col] == key)
                .map(|(id, _)| *id)
                .collect();
            assert_eq!(hits, expected, "probe of column {col} for {key}");
        }
    }
}

/// The ids a join probe of `col` for `key` yields: every chunk's index in
/// turn, which is scan order.
fn probe_all(t: &Table, col: usize, key: &Value) -> Vec<TupleId> {
    let mut hits = Vec::new();
    for b in t.columnar().batches() {
        hits.extend(b.probe(col, key).iter().map(|&pos| b.ids()[pos as usize]));
    }
    hits
}

/// `CommitDelta::diff`'s row operations as the whole-table merge-walk
/// computed them before tables were chunked: the reference the
/// chunk-skipping walk must reproduce.
fn whole_table_diff(base: &Database, post: &Database) -> Vec<RowOp> {
    let mut ops = Vec::new();
    for new in post.tables() {
        let table = || new.name().to_owned();
        let mut a = base.table(new.name()).unwrap().iter().peekable();
        let mut b = new.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some((ia, _)), Some((ib, _))) if ia == ib => {
                    let (_, ra) = a.next().unwrap();
                    let (id, rb) = b.next().unwrap();
                    if ra != rb {
                        let row = rb.clone();
                        ops.push(RowOp::Update {
                            table: table(),
                            id,
                            row,
                        });
                    }
                }
                (Some((ia, _)), next) if next.is_none_or(|(ib, _)| ia < ib) => {
                    let (id, _) = a.next().unwrap();
                    ops.push(RowOp::Delete { table: table(), id });
                }
                _ => {
                    let (id, row) = b.next().unwrap();
                    let row = row.clone();
                    ops.push(RowOp::Insert {
                        table: table(),
                        id,
                        row,
                    });
                }
            }
        }
    }
    ops
}

proptest! {
    /// The chunked table against a `BTreeMap` model, checked after every
    /// operation, with up to three snapshots held across the writes; and
    /// the commit diff between each snapshot and the final state, which
    /// steps over the chunks the two share, against the whole-table walk.
    #[test]
    fn chunked_table_matches_model_across_chunk_boundaries(ops in chunk_ops()) {
        let (mut db, mut model) = multi_chunk_table();
        let mut held = vec![(db.clone(), model.clone(), db.state_digest())];
        for op in &ops {
            if matches!(op, ChunkOp::Snapshot) {
                held.truncate(2);
                held.insert(0, (db.clone(), model.clone(), db.state_digest()));
            }
            apply_chunk_op(&mut db, &mut model, op);
            assert_table_matches(db.table("c").unwrap(), &model);
            for (snap, snap_model, digest) in &held {
                assert_table_matches(snap.table("c").unwrap(), snap_model);
                prop_assert_eq!(snap.state_digest(), *digest);
            }
        }
        for (snap, _, _) in &held {
            for (from, to) in [(snap, &db), (&db, snap)] {
                let delta = CommitDelta::diff(from, to);
                prop_assert_eq!(&delta.ops, &whole_table_diff(from, to));
                let mut rebuilt = from.clone();
                delta.apply(&mut rebuilt).unwrap();
                prop_assert_eq!(&rebuilt, to);
            }
        }
    }
}

/// Key pools of the typed-index property: duplicates, negatives, both
/// `i64` extremes, and the values NULL slots hold as placeholders (`0`,
/// `""`, `false`) present as real keys too; `None` is NULL.
const INT_KEYS: [Option<i64>; 8] = [
    None,
    Some(i64::MIN),
    Some(-7),
    Some(0),
    Some(0),
    Some(3),
    Some(41),
    Some(i64::MAX),
];
const STR_KEYS: [Option<&str>; 6] = [None, Some(""), Some("a"), Some("ab"), Some("b"), None];
const BOOL_KEYS: [Option<bool>; 3] = [None, Some(false), Some(true)];

/// Row `n` of the typed table: a pseudo-random pick from each pool.
fn typed_row(n: u64) -> Row {
    // splitmix64's finalizer: consecutive `n` pick unrelated keys.
    let mut z = n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    let pick = |salt: u64, len: usize| (z >> salt) as usize % len;
    vec![
        int_or_null(INT_KEYS[pick(7, INT_KEYS.len())]),
        STR_KEYS[pick(19, STR_KEYS.len())].map_or(Value::Null, Value::str),
        BOOL_KEYS[pick(31, BOOL_KEYS.len())].map_or(Value::Null, Value::Bool),
    ]
}

/// One step of the storm over the typed table (`rank` in thousandths of the
/// current row count, `seed` feeding [`typed_row`]).
#[derive(Clone, Debug)]
enum TypedOp {
    Append {
        n: u64,
        seed: u64,
    },
    /// Inserts between existing ids — into the middle of (full) chunks.
    Interleave {
        rank: usize,
        run: usize,
        seed: u64,
    },
    Update {
        rank: usize,
        run: usize,
        seed: u64,
    },
    DeleteRun {
        rank: usize,
        run: usize,
    },
}

fn typed_ops() -> impl Strategy<Value = Vec<TypedOp>> {
    let op =
        prop_oneof![
            (1u64..600, any::<u64>()).prop_map(|(n, seed)| TypedOp::Append { n, seed }),
            (0usize..1000, 1usize..30, any::<u64>())
                .prop_map(|(rank, run, seed)| TypedOp::Interleave { rank, run, seed }),
            (0usize..1000, 1usize..30, any::<u64>())
                .prop_map(|(rank, run, seed)| TypedOp::Update { rank, run, seed }),
            (0usize..1000, 1usize..500).prop_map(|(rank, run)| TypedOp::DeleteRun { rank, run }),
        ];
    proptest::collection::vec(op, 1..10)
}

proptest! {
    /// A join-index probe equals a linear scan of the row store, for `Int`,
    /// `Str` and `Bool` columns, across storms that fill, split, empty and
    /// merge chunks: every pool key, keys below the first and above the
    /// last, and — yielding nothing — NULL and keys of another variant.
    #[test]
    fn index_probe_equals_linear_scan(ops in typed_ops()) {
        let mut db = Database::new();
        let columns = vec![
            ColumnDef::nullable("i", ValueType::Int),
            ColumnDef::nullable("s", ValueType::Str),
            ColumnDef::nullable("f", ValueType::Bool),
        ];
        db.create_table(TableSchema::new("x", columns).unwrap()).unwrap();
        for n in 0..2500 {
            // Odd ids only: `Interleave` fills the gaps.
            db.insert_with_id("x", TupleId(2 * n + 1), typed_row(n)).unwrap();
        }
        let keys: Vec<Value> = (INT_KEYS.iter().map(|k| int_or_null(*k)))
            .chain([-8, 1, 42].map(Value::Int))
            .chain(STR_KEYS.iter().map(|k| k.map_or(Value::Null, Value::str)))
            .chain(["A", "aa", "c"].map(Value::str))
            .chain([Value::Bool(false), Value::Bool(true), Value::Float(0.0)])
            .collect();
        for op in ops.iter().map(Some).chain([None]) {
            let ids = db.table("x").unwrap().ids();
            let span = |rank: usize, run: usize| {
                let from = ids.len() * rank / 1000;
                from..(ids.len() * (rank + run) / 1000).min(ids.len())
            };
            match op {
                Some(&TypedOp::Append { n, seed }) => {
                    for k in 0..n {
                        db.insert("x", typed_row(seed.wrapping_add(k))).unwrap();
                    }
                }
                Some(&TypedOp::Interleave { rank, run, seed }) => {
                    for (k, &id) in ids[span(rank, run)].iter().enumerate() {
                        // Fails when the id above is taken; then nothing changes.
                        let row = typed_row(seed.wrapping_add(k as u64));
                        let _ = db.insert_with_id("x", TupleId(id.0 + 1), row);
                    }
                }
                Some(&TypedOp::Update { rank, run, seed }) => {
                    for (k, &id) in ids[span(rank, run)].iter().enumerate() {
                        db.update("x", id, typed_row(seed.wrapping_add(k as u64))).unwrap();
                    }
                }
                Some(&TypedOp::DeleteRun { rank, run }) => {
                    for &id in &ids[span(rank, run)] {
                        db.delete("x", id).unwrap();
                    }
                }
                None => {}
            }
            let t = db.table("x").unwrap();
            t.check_invariants();
            // One linear scan of the row store: column → value → ids.
            let mut scanned: [BTreeMap<&Value, Vec<TupleId>>; 3] = Default::default();
            for (id, row) in t.iter() {
                for (col, v) in row.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                    scanned[col].entry(v).or_default().push(id);
                }
            }
            for (col, by_value) in scanned.iter().enumerate() {
                for key in &keys {
                    let expected = by_value.get(key).cloned().unwrap_or_default();
                    let hits = probe_all(t, col, key);
                    prop_assert!(
                        hits == expected,
                        "column {col} for {key}: {} hits, {} expected",
                        hits.len(),
                        expected.len()
                    );
                }
            }
        }
    }
}

proptest! {
    /// A CoW snapshot diverging from its origin behaves exactly like a deep
    /// copy would: the snapshot keeps the pre-divergence contents and
    /// digests, the origin sees only its own writes, and both equal deep
    /// copies built row by row through the public API.
    #[test]
    fn cow_clone_is_observationally_a_deep_copy(
        prefix in storage_ops(),
        suffix in storage_ops(),
    ) {
        let mut live = fresh_db();
        for op in &prefix {
            apply(&mut live, op);
        }
        let snap = live.clone();
        let reference = deep_copy(&snap);
        prop_assert_eq!(live.shares_tables_with(&snap), true);

        for op in &suffix {
            apply(&mut live, op);
        }

        // The snapshot is frozen at the clone point…
        prop_assert_eq!(dump(&snap), dump(&reference));
        prop_assert_eq!(snap.state_digest(), reference.state_digest());
        // …and the diverged handle equals a deep copy of itself (its
        // incremental digests survived the unsharing).
        let live_reference = deep_copy(&live);
        prop_assert_eq!(dump(&live), dump(&live_reference));
        prop_assert_eq!(live.state_digest(), live_reference.state_digest());
    }

    /// Unlike table storage, fault-plan counters stay shared across CoW
    /// clones (injection counts are global to the transaction): a clone
    /// sees the fault state through the same `Arc` as its origin.
    #[test]
    fn cow_clone_shares_fault_counters(prefix in storage_ops()) {
        let mut live = fresh_db();
        for op in &prefix {
            apply(&mut live, op);
        }
        live.install_fault_plan(FaultPlan::single(FaultSpec::nth(u64::MAX)));
        let snap = live.clone();
        let (a, b) = (live.fault_state().unwrap(), snap.fault_state().unwrap());
        prop_assert!(std::sync::Arc::ptr_eq(a, b));
    }

    /// The incrementally maintained per-table content digest equals a
    /// from-scratch recompute after any operation sequence — on the mutated
    /// handle *and* on a snapshot taken mid-sequence.
    #[test]
    fn incremental_digest_equals_recompute(
        prefix in storage_ops(),
        suffix in storage_ops(),
    ) {
        let mut db = fresh_db();
        for op in &prefix {
            apply(&mut db, op);
        }
        let snap = db.clone();
        for op in &suffix {
            apply(&mut db, op);
        }
        for handle in [&db, &snap] {
            for t in handle.tables() {
                prop_assert_eq!(t.content_digest(), t.recompute_content_digest());
                // The cached digest is what the canonical table digest
                // reads, so it must move in lockstep.
                let _ = t.digest();
            }
        }
    }
}

/// Explores running at once on one `Database` — as server workers share a
/// cached program's tables across sessions — over a `big` of several chunks
/// that every rule rewrites: the threads share table versions, so they race
/// to build the chunk batches, indexes and selections one explore builds
/// alone, and each must still produce that explore's graph.
#[test]
fn parallel_explore_equals_sequential_over_a_multi_chunk_table() {
    let size = CondStress {
        rows: 4_102,
        fan: 3,
    };
    let (rules, base, actions) = (size.write_rules(), size.database(), size.user_actions());
    assert!(chunks(base.table("big").unwrap()) >= 4);
    let cfg = ExploreConfig::default();
    let start = std::sync::Barrier::new(3);
    let racing: Vec<_> = std::thread::scope(|s| {
        let explores: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    explore(&rules, &base, &actions, &cfg).unwrap()
                })
            })
            .collect();
        explores.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let alone = explore(&rules, &size.database(), &actions, &cfg).unwrap();
    for g in &racing {
        assert_eq!(g, &alone);
    }
    assert_eq!(alone.confluent(), Some(true));
    let memo = base.table("big").unwrap().columnar().batches();
    assert!(memo.map(TableBatch::memoized).any(|n| n > 0), "memo unused");
}
