//! What a small write to a large table costs, as a count rather than a
//! clock: the heap a ten-row `UPDATE` leaves allocated — the new table
//! version beside a held snapshot — and what the next condition then
//! allocates to have its columnar batches and join index again. Neither may
//! grow with the table. A test binary of its own, with one test, because
//! the counting allocator is process-wide.

mod counting;

use counting::{big, heap_of, Heap};
use starling::sql::ast::Statement;
use starling::sql::parse_statement;
use starling::sql::plan::{compile_action, execute_action, PlanMode};
use starling::storage::Value;

impl Heap {
    /// Blocks and bytes still allocated.
    fn retained(self) -> (isize, isize) {
        (
            self.allocated - self.freed,
            self.allocated_bytes - self.freed_bytes,
        )
    }
}

/// What one ten-row update of a `rows`-row table retains beside a held
/// snapshot, what re-deriving the batches and the `k` index then allocates,
/// and how many chunks the new version has.
fn write_cost(rows: i64) -> ((isize, isize), Heap, usize) {
    let mut db = big(rows);
    let snapshot = db.clone();
    // Ten keys across a chunk boundary (at the measured chunk size), so
    // two chunks are written.
    let Statement::Dml(update) =
        parse_statement("update big set v = -1 where k >= 2043 and k < 2053").unwrap()
    else {
        unreachable!()
    };
    let plan = compile_action(&update, db.catalog(), None).unwrap();
    let (written, ()) = heap_of(|| {
        // The effect list is the caller's; the new version is what stays.
        drop(execute_action(&plan, &mut db, None, PlanMode::Columnar).unwrap());
    });

    let (table, was) = (db.table("big").unwrap(), snapshot.table("big").unwrap());
    assert!(!table.shares_storage_with(was));
    let (shared, total) = table.chunks_shared_with(was);
    assert!(
        total - shared <= 2,
        "{rows} rows: {shared} of {total} chunks still shared with the snapshot"
    );
    assert_eq!(
        table.iter().filter(|(_, r)| r[1] == Value::Int(-1)).count(),
        10
    );

    let (rederived, ()) = heap_of(|| table.columnar().hash_index(0));
    // Nothing is left to build: the second use allocates nothing at all.
    assert_eq!(
        heap_of(|| table.columnar().hash_index(0)).0,
        Heap::default()
    );
    (written.retained(), rederived, total)
}

#[test]
fn a_small_write_costs_the_same_however_large_the_table() {
    let (small_write, small_rederive, small_chunks) = write_cost(10_000);
    let (large_write, large_rederive, large_chunks) = write_cost(100_000);
    assert!(small_chunks >= 2 && large_chunks > small_chunks);

    // The new version: as many blocks, and no more bytes than the root's
    // longer vector of chunk pointers accounts for. (The scan that picks
    // the ten rows allocates selection bitmaps per chunk and frees them;
    // they are not part of what the write keeps.)
    let extra_chunks = (large_chunks - small_chunks) as isize;
    assert_eq!(
        small_write.0, large_write.0,
        "blocks retained by the update: {small_write:?} on 10k rows, {large_write:?} on 100k"
    );
    assert!(
        (0..=16 * extra_chunks).contains(&(large_write.1 - small_write.1)),
        "bytes retained by the update: {small_write:?} on 10k rows, {large_write:?} on 100k"
    );

    // The next condition: only the written chunks' batches and indexes are
    // built, so every allocation — kept or not — is the same.
    assert_eq!(
        small_rederive, large_rederive,
        "columnar() + hash_index(0) after the update"
    );
    assert!(small_rederive.allocated > 0);
}
