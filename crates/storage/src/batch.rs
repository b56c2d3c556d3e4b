//! A columnar batch view of one chunk of a table.
//!
//! A [`TableBatch`] packs the rows of one chunk of a [`crate::Table`] (in
//! scan order, i.e. ascending [`TupleId`]) into per-column vectors. It is
//! built lazily, once per *chunk version*, and cached inside the chunk: every
//! table version that shares the chunk shares its batch, and a mutation
//! drops the batch of the one chunk it touches. Rule-condition evaluation
//! over a table a rule action barely changed — the hot loop of exec-graph
//! exploration — therefore re-flattens the touched chunks only and runs
//! vector kernels against the cached batches of the rest
//! ([`crate::table::Columnar`] lists them in scan order).
//!
//! The batch also lazily caches one join index per column, used by the
//! plan layer's equality joins: the chunk's non-NULL positions sorted by
//! (column value, position) — one `Vec<u32>`, one sort, no per-key
//! allocation. A probe ([`TableBatch::probe`]) is a range check against the
//! first and last key, then two binary searches. The run of positions under
//! one key is ascending and chunks are id-ordered, so probing the chunks'
//! indexes in turn yields matches in scan order — the same order a
//! nested-loop scan would produce, which keeps execution-graph output
//! byte-identical with the row path. NULL slots are not indexed (SQL
//! equality with NULL never matches): the *validity* bitmap decides, since
//! a NULL slot's data is a placeholder (`0`, `""`, `false`) that must not
//! be mistaken for a key.
//!
//! Beside the indexes sits a small memo of row selections
//! ([`TableBatch::selection`]): the bitmap a predicate over this batch's
//! columns alone selects, under the predicate's exact [`SelectionKey`]. A
//! batch lives exactly as long as one immutable chunk version, so such a
//! selection can never go stale; a condition re-evaluated over a table a
//! rule action barely changed recomputes the selections of the written
//! chunks only. A batch memoizes at most [`TableBatch::MEMO_CAP`] keys.

use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::column::{Bitmap, Column, ColumnData};
use crate::schema::TableSchema;
use crate::tuple::{Row, Tuple, TupleId};
use crate::value::Value;

/// Columnar snapshot of one chunk version: tuple ids plus one [`Column`]
/// per schema column, all in scan order.
#[derive(Debug)]
pub struct TableBatch {
    ids: Vec<TupleId>,
    columns: Vec<Column>,
    len: usize,
    /// Lazily built per-column join indexes: the non-NULL positions sorted
    /// by (value, position). `OnceLock` so concurrent readers can race to
    /// build them safely: server workers share a cached program's tables,
    /// and so their chunk versions, across sessions.
    indexes: Vec<OnceLock<Vec<u32>>>,
    /// Memoized selections, at most [`Self::MEMO_CAP`], behind a lock for
    /// the same concurrent readers.
    memo: Mutex<Vec<(SelectionKey, Arc<Bitmap>)>>,
}

/// The exact key of a memoized selection: a byte encoding of the predicate
/// that computes it, injective over the predicates the caller memoizes.
/// Two keys match only when their bytes are equal; no hash stands in for
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectionKey(Arc<[u8]>);

impl SelectionKey {
    /// The key spelled by `bytes`.
    pub fn new(bytes: Vec<u8>) -> Self {
        SelectionKey(bytes.into())
    }
}

/// A batch's row selection ([`TableBatch::selection`]): computed for this
/// caller, or shared out of the batch's memo.
#[derive(Debug)]
pub enum Selection {
    /// Computed and not memoized (no key, or a full memo).
    Computed(Bitmap),
    /// Held by the batch's memo.
    Memo(Arc<Bitmap>),
}

impl Deref for Selection {
    type Target = Bitmap;

    fn deref(&self) -> &Bitmap {
        match self {
            Selection::Computed(b) => b,
            Selection::Memo(b) => b,
        }
    }
}

impl TableBatch {
    /// Most selections one batch memoizes; once full, further keys are
    /// computed on every call. The benchmark's widest program keeps ten
    /// keys per chunk.
    pub const MEMO_CAP: usize = 16;

    /// Flattens one chunk (its tuples, in scan order) into a batch.
    ///
    /// Index positions are `u32`. A chunk holds far fewer rows (a
    /// compile-time fact, asserted beside `CHUNK_ROWS`), and any other
    /// caller is held to the same bound here.
    pub(crate) fn build(schema: &TableSchema, tuples: &[Tuple]) -> Self {
        let len = tuples.len();
        assert!(len <= u32::MAX as usize);
        let columns = schema
            .columns
            .iter()
            .enumerate()
            .map(|(ci, cd)| {
                Column::from_values(cd.ty, tuples.iter().map(move |t| &t.values[ci]), len)
            })
            .collect::<Vec<_>>();
        let indexes = (0..columns.len()).map(|_| OnceLock::new()).collect();
        TableBatch {
            ids: tuples.iter().map(|t| t.id).collect(),
            columns,
            len,
            indexes,
            memo: Mutex::new(Vec::new()),
        }
    }

    /// The selection `compute` returns over this batch, memoized under
    /// `key`. `compute` must be a pure function of this batch's columns,
    /// and `key` must identify it exactly: a hit returns what an earlier
    /// call computed under an equal key. Without a key, and once the memo
    /// holds [`Self::MEMO_CAP`] keys, `compute` just runs. It runs outside
    /// the lock, so racing callers may both compute a key; the first to
    /// store it wins, and both get the same bits.
    pub fn selection<E>(
        &self,
        key: Option<&SelectionKey>,
        compute: impl FnOnce() -> Result<Bitmap, E>,
    ) -> Result<Selection, E> {
        let Some(key) = key else {
            return compute().map(Selection::Computed);
        };
        let lookup = |memo: &[(SelectionKey, Arc<Bitmap>)]| {
            memo.iter()
                .find(|(k, _)| k == key)
                .map(|(_, sel)| Selection::Memo(Arc::clone(sel)))
        };
        if let Some(hit) = lookup(&self.memo()) {
            return Ok(hit);
        }
        let sel = compute()?;
        let mut memo = self.memo();
        if let Some(hit) = lookup(&memo) {
            return Ok(hit);
        }
        if memo.len() == Self::MEMO_CAP {
            return Ok(Selection::Computed(sel));
        }
        let sel = Arc::new(sel);
        memo.push((key.clone(), Arc::clone(&sel)));
        Ok(Selection::Memo(sel))
    }

    /// How many selections the memo holds (diagnostic, for the tests).
    #[doc(hidden)]
    pub fn memoized(&self) -> usize {
        self.memo().len()
    }

    /// The memo, locked. Nothing panics while holding the lock, so a
    /// poisoned lock still guards a consistent vector.
    fn memo(&self) -> std::sync::MutexGuard<'_, Vec<(SelectionKey, Arc<Bitmap>)>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple ids in scan order.
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column `col`.
    #[inline]
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// The exact [`Value`] stored at (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materializes row `pos` back into a [`Row`] identical to the one the
    /// row store holds.
    pub fn row(&self, pos: usize) -> Row {
        self.columns.iter().map(|c| c.value(pos)).collect()
    }

    /// The join index for `col`: the non-NULL positions sorted by (value,
    /// position). Built on first use and cached for the lifetime of this
    /// chunk version. Values compare straight on the typed column data; no
    /// [`Value`] is materialized.
    pub(crate) fn index(&self, col: usize) -> &[u32] {
        self.indexes[col].get_or_init(|| {
            let c = &self.columns[col];
            let mut order = Vec::with_capacity(c.validity.count_ones());
            // In range: `build` bounds `len` by `u32::MAX`.
            order.extend(c.validity.iter_ones().map(|p| p as u32));
            match &c.data {
                ColumnData::Int(v) => sort_by_value(&mut order, v),
                ColumnData::Str(v) => sort_by_value(&mut order, v),
                ColumnData::Mixed(v) => sort_by_value(&mut order, v),
                ColumnData::Bool(bits) => {
                    order.sort_unstable_by_key(|&p| (bits.get(p as usize), p));
                }
            }
            order
        })
    }

    /// The positions whose `col` value equals `key`, ascending; empty for a
    /// `NULL` key or a key of another variant than the column stores. Keys
    /// use structural equality, which coincides with SQL equality only when
    /// probe values share the column's non-float declared type — the same
    /// restriction the plan layer's `JoinKey` already enforces.
    pub fn probe(&self, col: usize, key: &Value) -> &[u32] {
        let order = self.index(col);
        match (&self.columns[col].data, key) {
            (ColumnData::Int(v), Value::Int(k)) => equal_run(order, |p| v[p].cmp(k)),
            (ColumnData::Bool(bits), Value::Bool(k)) => equal_run(order, |p| bits.get(p).cmp(k)),
            (ColumnData::Str(v), Value::Str(k)) => equal_run(order, |p| v[p].as_str().cmp(k)),
            // `NULL` ranks below every stored value, so it falls out of range.
            (ColumnData::Mixed(v), k) => equal_run(order, |p| v[p].cmp(k)),
            _ => &[],
        }
    }
}

/// Sorts positions by (value at the position, position).
fn sort_by_value<T: Ord>(order: &mut [u32], values: &[T]) {
    order.sort_unstable_by(|&a, &b| values[a as usize].cmp(&values[b as usize]).then(a.cmp(&b)));
}

/// The run of `order` (positions sorted by value) on which `cmp` — the
/// stored value at a position against the probe key — is `Equal`. A chunk
/// of an id-clustered table holds a narrow key range, so most probes of a
/// many-chunk table end at the first/last check without a search.
fn equal_run(order: &[u32], cmp: impl Fn(usize) -> Ordering) -> &[u32] {
    let (Some(&first), Some(&last)) = (order.first(), order.last()) else {
        return &[];
    };
    if cmp(first as usize) == Ordering::Greater || cmp(last as usize) == Ordering::Less {
        return &[];
    }
    let lo = order.partition_point(|&p| cmp(p as usize) == Ordering::Less);
    let run = &order[lo..];
    &run[..run.partition_point(|&p| cmp(p as usize) == Ordering::Equal)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::nullable("a", ValueType::Int),
                ColumnDef::nullable("s", ValueType::Str),
            ],
        )
        .unwrap()
    }

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(TupleId(1), vec![Value::Int(10), Value::Str("x".into())]),
            Tuple::new(TupleId(4), vec![Value::Null, Value::Str("y".into())]),
            Tuple::new(TupleId(9), vec![Value::Int(10), Value::Null]),
        ]
    }

    #[test]
    fn batch_round_trips_rows_in_scan_order() {
        let tuples = tuples();
        let b = TableBatch::build(&schema(), &tuples);
        assert_eq!(b.len(), 3);
        assert_eq!(b.ids(), &[TupleId(1), TupleId(4), TupleId(9)]);
        for (pos, t) in tuples.iter().enumerate() {
            assert_eq!(b.row(pos), t.values);
        }
    }

    #[test]
    fn index_skips_nulls_and_orders_hits() {
        let b = TableBatch::build(&schema(), &tuples());
        assert_eq!(b.index(0), &[0u32, 2]);
        assert_eq!(b.probe(0, &Value::Int(10)), &[0u32, 2]);
        // The NULL slot's placeholder (0) is not a key; NULL matches nothing.
        assert!(b.probe(0, &Value::Int(0)).is_empty());
        assert!(b.probe(0, &Value::Null).is_empty());
        // A key of another variant is an empty run, not a panic.
        assert!(b.probe(0, &Value::Str("10".into())).is_empty());
        assert!(b.probe(1, &Value::Int(10)).is_empty());
        assert_eq!(b.probe(1, &Value::Str("y".into())), &[1u32]);
        assert!(b.probe(1, &Value::Str(String::new())).is_empty());
        // Second call returns the cached index.
        assert!(std::ptr::eq(b.index(0), b.index(0)));
    }

    /// A one-column batch of `a` values, ids 1, 2, ….
    fn ints(values: &[Value]) -> TableBatch {
        let tuples: Vec<Tuple> = values
            .iter()
            .zip(1..)
            .map(|(v, id)| Tuple::new(TupleId(id), vec![v.clone(), Value::Null]))
            .collect();
        TableBatch::build(&schema(), &tuples)
    }

    #[test]
    fn index_of_an_all_null_column_is_empty() {
        let b = ints(&[Value::Null, Value::Null, Value::Null]);
        assert!(b.index(0).is_empty());
        for key in [Value::Int(0), Value::Null, Value::Bool(false)] {
            assert!(b.probe(0, &key).is_empty());
        }
    }

    #[test]
    fn index_of_a_one_row_chunk() {
        let b = ints(&[Value::Int(7)]);
        assert_eq!(b.probe(0, &Value::Int(7)), &[0u32]);
        for miss in [6, 8, i64::MIN, i64::MAX] {
            assert!(b.probe(0, &Value::Int(miss)).is_empty());
        }
    }

    /// A one-byte key.
    fn key(n: u8) -> SelectionKey {
        SelectionKey::new(vec![n])
    }

    #[test]
    fn a_hit_hands_out_the_stored_bits_without_computing() {
        let b = ints(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        let calls = std::cell::Cell::new(0);
        let select = |bits: Bitmap| {
            calls.set(calls.get() + 1);
            Ok::<_, ()>(bits)
        };
        let first = b
            .selection(Some(&key(0)), || select(Bitmap::ones(3)))
            .unwrap();
        let again = b
            .selection(Some(&key(0)), || select(Bitmap::zeros(3)))
            .unwrap();
        assert_eq!(calls.get(), 1);
        let (Selection::Memo(x), Selection::Memo(y)) = (&first, &again) else {
            panic!("a keyed selection memoizes: {first:?}, {again:?}");
        };
        assert!(Arc::ptr_eq(x, y));
        // No key: computed every time, stored never.
        let unkeyed = b.selection(None, || select(Bitmap::zeros(3))).unwrap();
        assert!(matches!(unkeyed, Selection::Computed(_)));
        assert_eq!((calls.get(), b.memoized()), (2, 1));
        // An error is passed through and stores nothing.
        assert!(b.selection(Some(&key(1)), || Err(())).is_err());
        assert_eq!(b.memoized(), 1);
    }

    #[test]
    fn index_of_an_all_equal_column_is_the_scan_order() {
        let b = ints(&vec![Value::Int(-3); 5]);
        assert_eq!(b.probe(0, &Value::Int(-3)), &[0u32, 1, 2, 3, 4]);
        assert!(b.probe(0, &Value::Int(-4)).is_empty());
        assert!(b.probe(0, &Value::Int(-2)).is_empty());
    }
}
