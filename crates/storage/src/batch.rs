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
//! The batch also lazily caches one hash index per column
//! (`Value → positions`), used by the plan layer's hash joins. Positions in
//! a hit list are ascending and chunks are id-ordered, so probing the
//! chunks' indexes in turn yields matches in scan order — the same order a
//! nested-loop scan would produce, which keeps execution-graph output
//! byte-identical with the row path. NULL keys are not indexed (SQL
//! equality with NULL never matches).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::column::Column;
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
    /// Lazily built per-column value indexes for hash joins. `OnceLock` so
    /// concurrent explorers (scoped threads in `explore_parallel`) can race
    /// to build them safely.
    indexes: Vec<OnceLock<HashMap<Value, Vec<u32>>>>,
}

impl TableBatch {
    /// Flattens one chunk (its tuples, in scan order) into a batch. Index positions are `u32`: a chunk holds far fewer rows (a
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
        }
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

    /// The hash index for `col`: non-NULL value → ascending positions.
    /// Built on first use and cached for the lifetime of this chunk
    /// version. Keys use structural equality, which coincides with SQL
    /// equality only when probe values share the column's non-float
    /// declared type — the same restriction the plan layer's `JoinKey`
    /// already enforces.
    pub fn hash_index(&self, col: usize) -> &HashMap<Value, Vec<u32>> {
        self.indexes[col].get_or_init(|| {
            let c = &self.columns[col];
            let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
            for pos in 0..self.len {
                if !c.is_null(pos) {
                    // In range: `build` bounds `len` by `u32::MAX`.
                    map.entry(c.value(pos)).or_default().push(pos as u32);
                }
            }
            map
        })
    }
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
        let idx = b.hash_index(0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(&Value::Int(10)), Some(&vec![0u32, 2]));
        assert!(!idx.contains_key(&Value::Null));
        // Second call returns the cached map.
        assert!(std::ptr::eq(idx, b.hash_index(0)));
    }
}
