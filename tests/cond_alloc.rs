//! What re-evaluating a rule condition costs after a rule action rewrote a
//! chunk, as a count rather than a clock. The condition's per-chunk
//! selections are memoized beside each chunk's batch, so over a
//! 100 000-row table it allocates for the chunks the action rewrote, not
//! for the ~98 it shares with the state before. The same plan under the
//! row executor (`EvalMode::Plan`) still allocates per row, which is how
//! the count shows the memo serves the columnar path alone.

mod counting;

use counting::{big, heap_of};
use starling::sql::ast::Statement;
use starling::sql::eval::TransitionBinding;
use starling::sql::plan::{compile_action, compile_condition, eval_condition, execute_action};
use starling::sql::plan::{CondPlan, PlanMode};
use starling::sql::{parse_expr, parse_statement};
use starling::storage::{Database, Value};

/// Blocks allocated by evaluating `plan` over `db` once in `mode`.
fn condition_blocks(
    plan: &CondPlan,
    db: &Database,
    binding: &TransitionBinding,
    mode: PlanMode,
) -> isize {
    let (heap, out) = heap_of(|| eval_condition(plan, db, Some(binding), mode));
    assert_eq!(out.unwrap(), Value::Bool(true), "[{mode:?}]");
    heap.allocated
}

#[test]
fn a_rule_condition_allocates_for_the_chunks_an_action_rewrote() {
    // `explore_bigwrite`'s condition: a join from the transition table into
    // `big`, and a scan of `big` that matches only at its end.
    let db = big(100_000);
    let cond = parse_expr(
        "exists (select * from inserted i, big b where b.k = i.k and b.v < 100) \
         and exists (select * from big where v > 8 and k > 99988)",
    )
    .unwrap();
    let plan = compile_condition(&cond, db.catalog(), Some("big")).unwrap();
    let binding = TransitionBinding {
        inserted: vec![vec![Value::Int(50_004), Value::Int(4)]],
        ..TransitionBinding::empty("big")
    };
    // The state the explorer came from evaluated it once already.
    eval_condition(&plan, &db, Some(&binding), PlanMode::Columnar).unwrap();

    // The rule's action rewrites ten rows, the joined key among them.
    let Statement::Dml(update) =
        parse_statement("update big set v = -1 where k >= 50000 and k < 50010").unwrap()
    else {
        unreachable!()
    };
    let mut next = db.clone();
    let action = compile_action(&update, db.catalog(), Some("big")).unwrap();
    execute_action(&action, &mut next, None, PlanMode::Columnar).unwrap();
    let (shared, total) = next
        .table("big")
        .unwrap()
        .chunks_shared_with(db.table("big").unwrap());
    let rewritten = (total - shared) as isize;
    assert!((1..=2).contains(&rewritten), "{shared} of {total} shared");

    // Batch, join index and two selections of each rewritten chunk, plus
    // the statement's own few vectors: 30 blocks measured for one chunk.
    // Recomputed over all 98 chunks, the selections alone would be ~600.
    let columnar = condition_blocks(&plan, &next, &binding, PlanMode::Columnar);
    assert!(
        (1..=32 * rewritten).contains(&columnar),
        "columnar over {rewritten} rewritten of {total} chunks: {columnar} blocks"
    );
    // The row executor indexes the probed side row by row, every time.
    let row = condition_blocks(&plan, &next, &binding, PlanMode::Row);
    assert!(row > 100_000, "row plan: {row} blocks");
}
