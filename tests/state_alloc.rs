//! What an explorer state costs, as a count rather than a clock: heap
//! allocations per `clone`, `absorb` and `new`, which must not grow with
//! the number of rules. A test binary of its own, with one test, because
//! the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use starling::engine::{ExecState, TupleOp};
use starling::storage::{Database, TupleId, Value};

thread_local! {
    /// Allocations made by this thread (the harness's own threads do not
    /// disturb the count).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter that
// is `const`-initialized and has no destructor, so touching it neither
// allocates nor runs after the thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn inserts(ids: std::ops::Range<u64>) -> Vec<TupleOp> {
    ids.map(|id| TupleOp::Insert {
        table: "t".into(),
        id: TupleId(id),
        row: vec![Value::Int(id as i64)],
    })
    .collect()
}

#[test]
fn a_state_costs_the_same_however_many_rules_share_it() {
    let hundred = inserts(0..100);
    let one_more = inserts(100..101);

    // Cloning copies handles, not the hundred net tuples behind them.
    let state = ExecState::new(Database::new(), 64, &hundred);
    let (cloning, copy) = allocations(|| state.clone());
    assert!(
        cloning <= 2,
        "clone of a 64-rule state: {cloning} allocations"
    );
    drop(copy);

    // Rules that share a pending transition share its update too.
    let absorbing = |n_rules: usize| {
        let mut state = ExecState::new(Database::new(), n_rules, &hundred);
        allocations(|| state.absorb(&one_more)).0
    };
    let (few, many) = (absorbing(4), absorbing(64));
    assert!(
        many.abs_diff(few) <= 2,
        "absorb into 4 rules: {few} allocations, into 64: {many}"
    );

    // A fresh state is one vector of handles to one net effect.
    let creating =
        |n_rules: usize| allocations(|| ExecState::new(Database::new(), n_rules, &hundred)).0;
    let (ten, thousand) = (creating(10), creating(1000));
    assert_eq!(
        ten, thousand,
        "new: allocations must not depend on the rule count"
    );
}
