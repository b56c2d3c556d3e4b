//! One chunk of a table: a run of tuples sorted by id plus the columnar
//! batch derived from them — the unit of sharing between table versions
//! (see [`crate::table`]). A chunk is immutable while more than one version
//! holds its `Arc`, so every such version sees these tuples and shares the
//! batch built from them on first use — and, inside it, the per-column join
//! indexes and the memoized predicate selections. The tuples can only be
//! written through [`Chunk::tuples_mut`], which drops the batch first, so a
//! batch (with every index and selection in it) never outlives its tuples.

use std::sync::OnceLock;

use crate::batch::TableBatch;
use crate::schema::TableSchema;
use crate::tuple::{Tuple, TupleId};

/// A non-empty run of tuples in ascending id order (one vector, so a
/// copied chunk is one allocation beside its rows). How many a chunk may
/// hold is the table's business.
#[derive(Debug)]
pub(crate) struct Chunk {
    tuples: Vec<Tuple>,
    batch: OnceLock<TableBatch>,
}

impl Chunk {
    pub(crate) fn new(tuples: Vec<Tuple>) -> Self {
        Chunk {
            tuples,
            batch: OnceLock::new(),
        }
    }

    pub(crate) fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuples, for writing; the batch derived from them is dropped.
    pub(crate) fn tuples_mut(&mut self) -> &mut Vec<Tuple> {
        self.batch = OnceLock::new();
        &mut self.tuples
    }

    pub(crate) fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// The smallest id in the chunk.
    pub(crate) fn first(&self) -> TupleId {
        self.tuples[0].id
    }

    /// The chunk's columnar batch, built on first use.
    pub(crate) fn batch(&self, schema: &TableSchema) -> &TableBatch {
        self.batch
            .get_or_init(|| TableBatch::build(schema, &self.tuples))
    }

    /// The batch, if some version holding this chunk has built it.
    pub(crate) fn built_batch(&self) -> Option<&TableBatch> {
        self.batch.get()
    }
}

impl Clone for Chunk {
    /// The copy `Arc::make_mut` takes ahead of a write: the tuples, never
    /// the batch the write is about to invalidate.
    fn clone(&self) -> Self {
        Chunk::new(self.tuples.clone())
    }
}
