//! What a user statement costs, as a count rather than a clock. A point
//! `UPDATE` and a ten-row `DELETE` typed at a session over a 20 000-row
//! table run the compiled plan a rule action would run: they allocate for
//! the chunks they write, not for the rows they scan — while an
//! `EvalMode::Interp` session clones every candidate row, which is how the
//! count shows that it ran no plan code. And the join index a written chunk
//! needs again is one sorted vector, not a map with a list per key.

mod counting;

use counting::{big, heap_of};
use starling::engine::{EvalMode, Session};
use starling::sql::parse_statement;

/// Blocks allocated by executing `sql` in a fresh `mode` session over `db`.
fn statement_blocks(db: &starling::storage::Database, mode: EvalMode, sql: &str) -> isize {
    let mut session = Session::restore(db.clone(), Vec::new(), None, Vec::new());
    session.eval_mode = mode;
    let stmt = parse_statement(sql).unwrap();
    let (heap, out) = heap_of(|| session.execute(&stmt));
    out.unwrap();
    assert!(!session.pending_ops().is_empty(), "{sql} touched nothing");
    heap.allocated
}

#[test]
fn a_user_statement_allocates_for_what_it_writes() {
    let db = big(20_000);
    for sql in [
        "update big set v = v + 1 where k = 10000",
        // Ten keys across a chunk boundary: two chunks are copied.
        "delete from big where k >= 2043 and k < 2053",
    ] {
        // At most two chunk copies of 1 024 row clones each, plus a
        // selection bitmap or two per chunk scanned.
        for mode in [EvalMode::Columnar, EvalMode::Plan] {
            let blocks = statement_blocks(&db, mode, sql);
            assert!(blocks < 5_000, "{sql} [{mode:?}]: {blocks} blocks");
        }
        // The interpreter's scan clones each of the 20 000 candidate rows.
        let blocks = statement_blocks(&db, EvalMode::Interp, sql);
        assert!(blocks > 20_000, "{sql} [Interp]: {blocks} blocks");
    }
}

#[test]
fn a_rewritten_chunk_rebuilds_its_batch_and_index_in_a_few_blocks() {
    let mut session = Session::restore(big(100_000), Vec::new(), None, Vec::new());
    let snapshot = session.db().clone();
    let update = parse_statement("update big set v = -1 where k = 50000").unwrap();
    session.execute(&update).unwrap();

    let (table, was) = (
        session.db().table("big").unwrap(),
        snapshot.table("big").unwrap(),
    );
    let (shared, total) = table.chunks_shared_with(was);
    let rewritten = (total - shared) as isize;
    assert!(
        (1..=2).contains(&rewritten),
        "{shared} of {total} chunks shared"
    );

    let (heap, ()) = heap_of(|| table.columnar().hash_index(0));
    assert!(
        (1..=32 * rewritten).contains(&heap.allocated),
        "columnar() + hash_index(0) over {rewritten} rewritten chunk(s): {heap:?}"
    );
}
