//! A single stored table: schema plus identified rows, stored as a
//! persistent (copy-on-write) list of chunks with an incrementally
//! maintained content digest.

use std::sync::Arc;

use crate::batch::TableBatch;
use crate::chunk::Chunk;
use crate::digest::{mix64, CanonicalDigest, Fnv64};
use crate::error::StorageError;
use crate::schema::TableSchema;
use crate::tuple::{Row, Tuple, TupleId};
use crate::value::Value;

/// Most tuples one [`Chunk`] holds: the unit a write copies and a condition
/// re-flattens. Ids are allocated monotonically, so chunks fill up and stay
/// full; 512 / 1 024 / 4 096 were measured (CHANGES.md, PR 16).
const CHUNK_ROWS: usize = 1024;
// Chunk-local positions are stored as `u32` in the batch's join indexes.
const _: () = assert!(CHUNK_ROWS <= u32::MAX as usize);

/// One version of a table's contents, shared by every handle cloned from
/// it: cloning a [`Table`] (and therefore a whole [`crate::Database`]) only
/// bumps this root's refcount, and the first write through a shared handle
/// copies the root — a vector of chunk pointers — plus the chunks it
/// touches, nothing else.
#[derive(Clone, Debug)]
struct TableCore {
    /// Non-empty chunks with disjoint, ascending id ranges.
    chunks: Vec<Arc<Chunk>>,
    /// Number of rows across all chunks.
    len: usize,
    /// Order-independent multiset digest of the row contents (tuple ids
    /// excluded), maintained incrementally: each mutation folds the touched
    /// row's digest in or out, so reading the table digest never re-hashes
    /// the rows and does not depend on how they are chunked. Invariant:
    /// always equals [`Table::recompute_content_digest`] (property-tested).
    content: u64,
}

impl TableCore {
    /// Where `id` is — `Ok((chunk, position))` — or where it would be
    /// inserted to keep the table sorted — `Err((chunk, position))`, the
    /// position possibly one past the end of a (perhaps full) chunk;
    /// `Err((0, 0))` on an empty table.
    fn find(&self, id: TupleId) -> Result<(usize, usize), (usize, usize)> {
        let Some(last) = self.chunks.last() else {
            return Err((0, 0));
        };
        // Fresh ids exceed every stored one: the usual insert is an append.
        let ci = if last.first() <= id {
            self.chunks.len() - 1
        } else {
            self.chunks
                .partition_point(|c| c.first() <= id)
                .saturating_sub(1)
        };
        match self.chunks[ci].tuples().binary_search_by_key(&id, |t| t.id) {
            Ok(pos) => Ok((ci, pos)),
            Err(pos) => Err((ci, pos)),
        }
    }

    /// Chunk `ci`'s tuples, unshared for writing (and without their stale
    /// batch).
    fn chunk_mut(&mut self, ci: usize) -> &mut Vec<Tuple> {
        Arc::make_mut(&mut self.chunks[ci]).tuples_mut()
    }

    /// Moves chunk `ci + 1`'s tuples to the end of chunk `ci`.
    fn merge_next_into(&mut self, ci: usize) {
        let next = Arc::unwrap_or_clone(self.chunks.remove(ci + 1));
        self.chunk_mut(ci).extend(next.into_tuples());
    }
}

/// A stored table.
///
/// Rows are kept in [`TupleId`] order, giving deterministic scan order, in
/// chunks behind `Arc`s under one `Arc`ed root: snapshots are refcount
/// bumps, and a write copies the root's pointer vector and the chunk it
/// lands in (copy-on-write), so consecutive versions share everything else
/// — rows, columnar batches and join indexes alike.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Arc<TableSchema>,
    core: Arc<TableCore>,
}

impl PartialEq for Table {
    /// Equality over schema and `(id, row)` contents; chunking and cached
    /// batches are representation. Costs the chunks the two do not share.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.core.len == other.core.len
            && self.core.content == other.core.content
            && self.diff(other).next().is_none()
    }
}

impl Eq for Table {}

/// Digest of one row's contents as it enters the multiset combination.
///
/// The raw FNV digest is passed through [`mix64`] so the wrapping-sum
/// combination in [`TableCore::content`] is collision-resistant against the
/// regular structure of short rows.
#[inline]
fn row_entry_digest(row: &Row) -> u64 {
    let mut h = Fnv64::new();
    row.as_slice().digest_into(&mut h);
    mix64(h.finish())
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema: Arc::new(schema),
            core: Arc::new(TableCore {
                chunks: Vec::new(),
                len: 0,
                content: 0,
            }),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.core.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.core.len == 0
    }

    /// Whether this handle and `other` are the same table version: no write
    /// has gone through either since one was cloned from the other
    /// (diagnostic; used by the CoW tests).
    pub fn shares_storage_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.core, &other.core)
    }

    /// How many of this version's chunks `other` holds too, and how many
    /// chunks this version has (diagnostic, like
    /// [`Self::shares_storage_with`]).
    #[doc(hidden)]
    pub fn chunks_shared_with(&self, other: &Table) -> (usize, usize) {
        let shared = self
            .core
            .chunks
            .iter()
            .filter(|c| match other.core.find(c.first()) {
                Ok((ci, _)) => Arc::ptr_eq(c, &other.core.chunks[ci]),
                Err(_) => false,
            })
            .count();
        (shared, self.core.chunks.len())
    }

    /// Panics unless the chunk list is well formed: chunks non-empty and at
    /// most [`CHUNK_ROWS`] long, ids strictly ascending within and across
    /// chunks, the row count and every built batch in step with the rows.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut prev = None;
        for c in &self.core.chunks {
            assert!(!c.tuples().is_empty() && c.tuples().len() <= CHUNK_ROWS);
            for t in c.tuples() {
                assert!(prev < Some(t.id), "ids out of order at {}", t.id);
                prev = Some(t.id);
            }
            if let Some(b) = c.built_batch() {
                assert!(b.ids().iter().eq(c.tuples().iter().map(|t| &t.id)));
            }
        }
        let rows: usize = self.core.chunks.iter().map(|c| c.tuples().len()).sum();
        assert_eq!(rows, self.core.len);
    }

    /// Inserts a row under a caller-allocated id.
    ///
    /// The id must be fresh; [`crate::Database`] allocates ids globally.
    pub fn insert(&mut self, id: TupleId, row: Row) -> Result<(), StorageError> {
        self.schema.check_row(&row)?;
        self.insert_checked(id, row)
    }

    /// [`Self::insert`] for a row the caller has already passed through
    /// `check_row`.
    pub(crate) fn insert_checked(&mut self, id: TupleId, row: Row) -> Result<(), StorageError> {
        let (mut ci, mut pos) = match self.core.find(id) {
            Ok(_) => {
                return Err(StorageError::DuplicateTupleId {
                    table: self.schema.name.clone(),
                    id,
                })
            }
            Err(at) => at,
        };
        let entry = row_entry_digest(&row);
        let core = Arc::make_mut(&mut self.core);
        core.len += 1;
        core.content = core.content.wrapping_add(entry);
        let full = core
            .chunks
            .get(ci)
            .is_some_and(|c| c.tuples().len() == CHUNK_ROWS);
        if core.chunks.is_empty() || (full && pos == CHUNK_ROWS) {
            // Past the end of a full chunk (every append, once the last
            // chunk fills): open a new chunk and leave the full one shared.
            let at = (ci + 1).min(core.chunks.len());
            core.chunks
                .insert(at, Arc::new(Chunk::new(vec![Tuple::new(id, row)])));
            return Ok(());
        }
        if full {
            // Inside a full chunk (replaying a logged id): split it.
            let half = CHUNK_ROWS / 2;
            let upper = Chunk::new(core.chunk_mut(ci).split_off(half));
            core.chunks.insert(ci + 1, Arc::new(upper));
            if pos > half {
                (ci, pos) = (ci + 1, pos - half);
            }
        }
        let tuples = core.chunk_mut(ci);
        tuples.insert(pos, Tuple::new(id, row));
        if tuples.len() == CHUNK_ROWS {
            // Full chunks are what a table mostly consists of and never
            // grow again: give back what doubling (from a copy-on-write
            // clone's exact capacity) left over, up to a chunk's worth.
            tuples.shrink_to_fit();
        }
        Ok(())
    }

    /// Where tuple `id` is stored, or the error every mutator reports for a
    /// missing tuple — before anything is unshared.
    fn locate(&self, id: TupleId) -> Result<(usize, usize), StorageError> {
        self.core.find(id).map_err(|_| StorageError::NoSuchTuple {
            table: self.schema.name.clone(),
            id,
        })
    }

    /// Deletes a row, returning its final values.
    pub fn delete(&mut self, id: TupleId) -> Result<Row, StorageError> {
        let (ci, pos) = self.locate(id)?;
        let core = Arc::make_mut(&mut self.core);
        let chunk = core.chunk_mut(ci);
        let old = chunk.remove(pos).values;
        let left = chunk.len();
        core.len -= 1;
        core.content = core.content.wrapping_sub(row_entry_digest(&old));
        // Keep chunks non-empty, and fold a chunk into a neighbour once
        // both fit in half a chunk (a split's halves never qualify, so
        // inserts and deletes around one boundary cannot thrash).
        let fits =
            |c: Option<&Arc<Chunk>>| c.is_some_and(|c| c.tuples().len() + left <= CHUNK_ROWS / 2);
        if left == 0 {
            core.chunks.remove(ci);
        } else if ci > 0 && fits(core.chunks.get(ci - 1)) {
            core.merge_next_into(ci - 1);
        } else if fits(core.chunks.get(ci + 1)) {
            core.merge_next_into(ci);
        }
        Ok(old)
    }

    /// Replaces a row's values wholesale, returning the old values.
    pub fn update(&mut self, id: TupleId, row: Row) -> Result<Row, StorageError> {
        self.schema.check_row(&row)?;
        let (ci, pos) = self.locate(id)?;
        let entry = row_entry_digest(&row);
        let core = Arc::make_mut(&mut self.core);
        let old = std::mem::replace(&mut core.chunk_mut(ci)[pos].values, row);
        core.content = core
            .content
            .wrapping_sub(row_entry_digest(&old))
            .wrapping_add(entry);
        Ok(old)
    }

    /// Updates one column of a row, returning the previous full row.
    pub fn update_column(
        &mut self,
        id: TupleId,
        column: &str,
        value: Value,
    ) -> Result<Row, StorageError> {
        let idx = self
            .schema
            .column_index(column)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: self.schema.name.clone(),
                column: column.to_owned(),
            })?;
        self.schema.columns[idx].check(&self.schema.name, &value)?;
        let (ci, pos) = self.locate(id)?;
        let core = Arc::make_mut(&mut self.core);
        let slot = &mut core.chunk_mut(ci)[pos].values;
        let old = slot.clone();
        slot[idx] = value;
        let entry = row_entry_digest(slot);
        core.content = core
            .content
            .wrapping_sub(row_entry_digest(&old))
            .wrapping_add(entry);
        Ok(old)
    }

    /// A row by id.
    pub fn get(&self, id: TupleId) -> Option<&Row> {
        let (ci, pos) = self.core.find(id).ok()?;
        Some(&self.core.chunks[ci].tuples()[pos].values)
    }

    /// Whether a tuple with this id exists.
    pub fn contains(&self, id: TupleId) -> bool {
        self.core.find(id).is_ok()
    }

    /// Iterates `(id, row)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Row)> {
        self.stored().map(|t| (t.id, &t.values))
    }

    fn stored(&self) -> impl Iterator<Item = &Tuple> {
        self.core.chunks.iter().flat_map(|c| c.tuples())
    }

    /// Iterates borrowed rows in id order (the scan primitive for compiled
    /// plans: no per-row clones, no id bookkeeping).
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.stored().map(|t| &t.values)
    }

    /// Iterates owned [`Tuple`]s in id order.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.stored().cloned()
    }

    /// All tuple ids, in order.
    pub fn ids(&self) -> Vec<TupleId> {
        self.stored().map(|t| t.id).collect()
    }

    /// The columnar view of this table version: every chunk's batch, built
    /// here where a chunk has none yet (a chunk unchanged since an earlier
    /// version keeps the batch that version built). The borrow is tied to
    /// this handle.
    pub fn columnar(&self) -> Columnar<'_> {
        for c in &self.core.chunks {
            c.batch(&self.schema);
        }
        Columnar {
            chunks: &self.core.chunks,
        }
    }

    /// The rows in which this version and `post` differ, in id order, as
    /// `(id, row here, row in post)` — a missing side is `None`. Walks both
    /// chunk lists in step and steps over every chunk the two versions
    /// share, so it costs the chunks written between them.
    pub(crate) fn diff<'a>(
        &'a self,
        post: &'a Table,
    ) -> impl Iterator<Item = (TupleId, Option<&'a Row>, Option<&'a Row>)> {
        let mut old = Cursor(&self.core.chunks, 0);
        let mut new = Cursor(&post.core.chunks, 0);
        std::iter::from_fn(move || loop {
            // A chunk both versions hold, met at its start on both sides,
            // contributes nothing. (Met out of step, the lagging side's ids
            // are all smaller, so it catches up to the chunk start first.)
            if let (Cursor([a, ..], 0), Cursor([b, ..], 0)) = (&old, &new) {
                if Arc::ptr_eq(a, b) {
                    (old.0, new.0) = (&old.0[1..], &new.0[1..]);
                    continue;
                }
            }
            match (old.peek(), new.peek()) {
                (None, None) => return None,
                (Some((ia, ra)), Some((ib, rb))) if ia == ib => {
                    old.advance();
                    new.advance();
                    if ra != rb {
                        return Some((ia, Some(ra), Some(rb)));
                    }
                }
                (Some((ia, ra)), b) if b.is_none_or(|(ib, _)| ia < ib) => {
                    old.advance();
                    return Some((ia, Some(ra), None));
                }
                (_, b) => {
                    let (ib, rb) = b.expect("the old side is exhausted or ahead");
                    new.advance();
                    return Some((ib, None, Some(rb)));
                }
            }
        })
    }

    /// The cached content digest: an order-independent multiset digest of
    /// the row contents (ids excluded), maintained incrementally by every
    /// mutation. O(1).
    pub fn content_digest(&self) -> u64 {
        self.core.content
    }

    /// Recomputes the content digest from scratch by hashing every row.
    /// Must always equal [`Self::content_digest`] — the incremental-digest
    /// property tests compare the two after randomized operation sequences.
    pub fn recompute_content_digest(&self) -> u64 {
        self.rows()
            .fold(0u64, |acc, row| acc.wrapping_add(row_entry_digest(row)))
    }
}

/// The columnar view of one table version ([`Table::columnar`]): one
/// [`TableBatch`] per chunk, in scan order. There is no whole-table batch;
/// kernels and index probes run chunk by chunk.
#[derive(Clone, Copy, Debug)]
pub struct Columnar<'a> {
    chunks: &'a [Arc<Chunk>],
}

impl<'a> Columnar<'a> {
    /// The chunks' batches, in scan order.
    pub fn batches(self) -> impl Iterator<Item = &'a TableBatch> {
        self.chunks
            .iter()
            .map(|c| c.built_batch().expect("built by Table::columnar"))
    }

    /// Builds column `col`'s join index in every chunk that lacks it — what
    /// the first join probe on `col` would otherwise pay. Probes then go
    /// through each batch's [`TableBatch::probe`].
    pub fn hash_index(self, col: usize) {
        for b in self.batches() {
            b.index(col);
        }
    }
}

/// The next tuple of an id-ordered walk: the chunks still ahead and the
/// position in the first of them.
struct Cursor<'a>(&'a [Arc<Chunk>], usize);

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<(TupleId, &'a Row)> {
        let c = self.0.first()?;
        let t = &c.tuples()[self.1];
        Some((t.id, &t.values))
    }

    fn advance(&mut self) {
        self.1 += 1;
        if self.1 == self.0[0].tuples().len() {
            (self.0, self.1) = (&self.0[1..], 0);
        }
    }
}

impl CanonicalDigest for Table {
    /// Digests the table as a **multiset of rows**, deliberately ignoring
    /// tuple ids: two database states with the same contents are the same
    /// observable state even when different execution orders allocated ids
    /// differently. (Tuple identity matters *within* a transition — the
    /// net-effect algebra — never across final states.)
    ///
    /// Reads the incrementally maintained cache: O(name length), never
    /// O(rows).
    fn digest_into(&self, h: &mut Fnv64) {
        h.write_str(&self.schema.name);
        h.write_usize(self.core.len);
        h.write_u64(self.core.content);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn tbl() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::nullable("b", ValueType::Str),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_get_delete() {
        let mut t = tbl();
        t.insert(TupleId(1), vec![Value::Int(1), Value::from("x")])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(TupleId(1)).unwrap()[0], Value::Int(1));
        let old = t.delete(TupleId(1)).unwrap();
        assert_eq!(old[1], Value::from("x"));
        assert!(t.is_empty());
        assert!(matches!(
            t.delete(TupleId(1)),
            Err(StorageError::NoSuchTuple { .. })
        ));
    }

    #[test]
    fn insert_rejects_bad_rows() {
        let mut t = tbl();
        assert!(matches!(
            t.insert(TupleId(1), vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(TupleId(1), vec![Value::from("x"), Value::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));
        t.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        assert!(matches!(
            t.insert(TupleId(1), vec![Value::Int(2), Value::Null]),
            Err(StorageError::DuplicateTupleId { .. })
        ));
    }

    #[test]
    fn update_column_preserves_identity() {
        let mut t = tbl();
        t.insert(TupleId(5), vec![Value::Int(1), Value::Null])
            .unwrap();
        let old = t.update_column(TupleId(5), "a", Value::Int(9)).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(t.get(TupleId(5)).unwrap()[0], Value::Int(9));
        assert!(matches!(
            t.update_column(TupleId(5), "zz", Value::Int(0)),
            Err(StorageError::UnknownColumn { .. })
        ));
        assert!(matches!(
            t.update_column(TupleId(5), "a", Value::from("s")),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn whole_row_update() {
        let mut t = tbl();
        t.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        let old = t
            .update(TupleId(1), vec![Value::Int(2), Value::from("y")])
            .unwrap();
        assert_eq!(old, vec![Value::Int(1), Value::Null]);
        assert_eq!(
            t.get(TupleId(1)).unwrap(),
            &vec![Value::Int(2), Value::from("y")]
        );
    }

    #[test]
    fn digest_changes_with_content() {
        let mut t1 = tbl();
        let mut t2 = tbl();
        assert_eq!(t1.digest(), t2.digest());
        t1.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        assert_ne!(t1.digest(), t2.digest());
        t2.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(t1.digest(), t2.digest());
    }

    #[test]
    fn scan_order_is_deterministic() {
        let mut t = tbl();
        t.insert(TupleId(3), vec![Value::Int(3), Value::Null])
            .unwrap();
        t.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        t.insert(TupleId(2), vec![Value::Int(2), Value::Null])
            .unwrap();
        let ids: Vec<_> = t.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn clone_shares_storage_until_mutation() {
        let mut t = tbl();
        t.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        let snap = t.clone();
        assert!(t.shares_storage_with(&snap));
        // First mutation through one handle unshares it…
        t.insert(TupleId(2), vec![Value::Int(2), Value::Null])
            .unwrap();
        assert!(!t.shares_storage_with(&snap));
        // …and the snapshot still sees the old contents.
        assert_eq!(snap.len(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn failed_mutations_do_not_unshare() {
        let mut t = tbl();
        for i in 1..=(2 * CHUNK_ROWS as u64 + 1) {
            t.insert(TupleId(i), vec![Value::Int(1), Value::Null])
                .unwrap();
        }
        let snap = t.clone();
        // Every error path returns before copy-on-write triggers — of the
        // root and of every chunk.
        let unshared_nothing = |t: &Table| {
            assert!(t.shares_storage_with(&snap));
            assert_eq!(t.chunks_shared_with(&snap), (3, 3));
        };
        let row = || vec![Value::Int(9), Value::Null];
        assert!(t.insert(TupleId(1), row()).is_err());
        unshared_nothing(&t);
        assert!(t.insert(TupleId(9999), vec![Value::Int(9)]).is_err());
        unshared_nothing(&t);
        assert!(t.delete(TupleId(9999)).is_err());
        unshared_nothing(&t);
        assert!(t.update(TupleId(9999), row()).is_err());
        unshared_nothing(&t);
        assert!(t
            .update(TupleId(1), vec![Value::Null, Value::Null])
            .is_err());
        unshared_nothing(&t);
        assert!(t.update_column(TupleId(1), "zz", Value::Int(0)).is_err());
        unshared_nothing(&t);
        assert!(t.update_column(TupleId(1), "a", Value::Null).is_err());
        unshared_nothing(&t);
        assert!(t.update_column(TupleId(9999), "a", Value::Int(0)).is_err());
        unshared_nothing(&t);
    }

    #[test]
    fn incremental_digest_matches_recompute() {
        let mut t = tbl();
        assert_eq!(t.content_digest(), t.recompute_content_digest());
        t.insert(TupleId(1), vec![Value::Int(1), Value::from("x")])
            .unwrap();
        t.insert(TupleId(2), vec![Value::Int(2), Value::Null])
            .unwrap();
        assert_eq!(t.content_digest(), t.recompute_content_digest());
        t.update(TupleId(1), vec![Value::Int(7), Value::Null])
            .unwrap();
        assert_eq!(t.content_digest(), t.recompute_content_digest());
        t.update_column(TupleId(2), "a", Value::Int(9)).unwrap();
        assert_eq!(t.content_digest(), t.recompute_content_digest());
        t.delete(TupleId(1)).unwrap();
        assert_eq!(t.content_digest(), t.recompute_content_digest());
        t.delete(TupleId(2)).unwrap();
        assert_eq!(t.content_digest(), 0);
    }

    /// The view's rows, chunk batches concatenated.
    fn view(t: &Table) -> Vec<(TupleId, Row)> {
        t.columnar()
            .batches()
            .flat_map(|b| (0..b.len()).map(|pos| (b.ids()[pos], b.row(pos))))
            .collect()
    }

    /// The columnar view reflects every mutation (the touched chunk's batch
    /// is dropped on write) and a chunk's batch is shared by every version
    /// holding the chunk.
    #[test]
    fn columnar_view_tracks_mutations() {
        let mut t = tbl();
        let n = CHUNK_ROWS as u64 + 2;
        for i in 1..=n {
            t.insert(TupleId(i), vec![Value::Int(i as i64), Value::Null])
                .unwrap();
        }
        let batches = |t: &Table| -> Vec<*const TableBatch> {
            t.columnar().batches().map(std::ptr::from_ref).collect()
        };
        assert_eq!(view(&t).len(), n as usize);
        // A snapshot of the same version shares every batch.
        let snap = t.clone();
        assert_eq!(batches(&t), batches(&snap));
        // A write rebuilds the touched chunk's batch in that handle only.
        t.update_column(TupleId(n), "a", Value::Int(-9)).unwrap();
        assert_eq!(t.chunks_shared_with(&snap), (1, 2));
        assert_eq!(view(&t)[n as usize - 1].1[0], Value::Int(-9));
        assert_eq!(view(&snap)[n as usize - 1].1[0], Value::Int(n as i64));
        assert_eq!(batches(&t)[0], batches(&snap)[0]);
        assert_ne!(batches(&t)[1], batches(&snap)[1]);
        // Mutating an *unshared* chunk must also drop its batch.
        drop(snap);
        t.delete(TupleId(n)).unwrap();
        assert_eq!(view(&t).len(), n as usize - 1);
        assert_eq!(
            view(&t),
            t.iter().map(|(id, r)| (id, r.clone())).collect::<Vec<_>>()
        );
    }

    /// Chunks open, split, empty and merge as the issue of ids dictates,
    /// and `diff` sees exactly the rows two versions disagree on.
    #[test]
    fn chunks_split_merge_and_diff() {
        let row = |v: i64| vec![Value::Int(v), Value::Null];
        let mut t = tbl();
        // Appends fill chunks without ever splitting.
        for i in 0..(3 * CHUNK_ROWS as u64) {
            t.insert(TupleId(10 * i), row(0)).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.chunks_shared_with(&t), (3, 3));
        // A mid-table id splits the full chunk it lands in, leaving the
        // other chunks shared with the previous version.
        let v0 = t.clone();
        t.insert(TupleId(5), row(1)).unwrap();
        t.check_invariants();
        assert_eq!(t.chunks_shared_with(&v0), (2, 4));
        let d: Vec<_> = v0.diff(&t).collect();
        assert_eq!(d, vec![(TupleId(5), None, Some(&row(1)))]);
        assert_eq!(
            t.diff(&v0).collect::<Vec<_>>(),
            vec![(TupleId(5), Some(&row(1)), None)]
        );
        // Emptying a chunk drops it; the halves of the split merge once
        // both fit in half a chunk.
        let v1 = t.clone();
        for i in (2 * CHUNK_ROWS as u64)..(3 * CHUNK_ROWS as u64) {
            t.delete(TupleId(10 * i)).unwrap();
        }
        for i in 0..(CHUNK_ROWS as u64 / 2 + 2) {
            t.delete(TupleId(10 * i)).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.chunks_shared_with(&v1), (1, 2));
        assert_eq!(
            t.len(),
            3 * CHUNK_ROWS + 1 - CHUNK_ROWS - CHUNK_ROWS / 2 - 2
        );
        assert_eq!(v1.diff(&t).count(), CHUNK_ROWS + CHUNK_ROWS / 2 + 2);
        assert_eq!(t.content_digest(), t.recompute_content_digest());
        // Equality is over contents, however they are chunked.
        let mut rebuilt = tbl();
        for (id, r) in t.iter() {
            rebuilt.insert(id, r.clone()).unwrap();
        }
        assert_eq!(rebuilt, t);
        assert_ne!(rebuilt, v1);
        rebuilt.update(TupleId(5), row(2)).unwrap();
        assert_ne!(rebuilt, t);
    }

    /// The content digest ignores tuple ids and insertion order: the same
    /// multiset of rows digests identically however it was produced.
    #[test]
    fn content_digest_is_id_and_order_independent() {
        let mut a = tbl();
        a.insert(TupleId(1), vec![Value::Int(1), Value::Null])
            .unwrap();
        a.insert(TupleId(2), vec![Value::Int(2), Value::Null])
            .unwrap();
        let mut b = tbl();
        b.insert(TupleId(9), vec![Value::Int(2), Value::Null])
            .unwrap();
        b.insert(TupleId(4), vec![Value::Int(1), Value::Null])
            .unwrap();
        assert_eq!(a.content_digest(), b.content_digest());
        assert_eq!(a.digest(), b.digest());
    }
}
