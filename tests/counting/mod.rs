//! The counting allocator of the allocation-count tests (`write_alloc`,
//! `stmt_alloc`, `cond_alloc`, `analyze_alloc`) and the table the first
//! three measure. Each of those is a test binary
//! of its own, because the allocator is process-wide; the counters are per
//! thread, so the harness's own threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use starling::storage::{ColumnDef, Database, TableSchema, Value, ValueType};

/// Heap activity of one thread: blocks and bytes, allocated and freed.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Heap {
    pub allocated: isize,
    pub allocated_bytes: isize,
    pub freed: isize,
    pub freed_bytes: isize,
}

thread_local! {
    /// This thread's heap activity (the harness's own threads do not
    /// disturb the count).
    static HEAP: Cell<Heap> = const { Cell::new(Heap {
        allocated: 0,
        allocated_bytes: 0,
        freed: 0,
        freed_bytes: 0,
    }) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract (`realloc` is the default: `alloc`, copy,
// `dealloc`, through here); the only addition is a thread-local counter
// that is `const`-initialized and has no destructor, so touching it neither
// allocates nor runs after the thread's locals are gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP.with(|h| {
            let mut heap = h.get();
            heap.allocated += 1;
            heap.allocated_bytes += layout.size() as isize;
            h.set(heap);
        });
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP.with(|h| {
            let mut heap = h.get();
            heap.freed += 1;
            heap.freed_bytes += layout.size() as isize;
            h.set(heap);
        });
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap activity of `f` on this thread.
pub fn heap_of<T>(f: impl FnOnce() -> T) -> (Heap, T) {
    let before = HEAP.with(Cell::get);
    let out = f();
    let after = HEAP.with(Cell::get);
    let delta = Heap {
        allocated: after.allocated - before.allocated,
        allocated_bytes: after.allocated_bytes - before.allocated_bytes,
        freed: after.freed - before.freed,
        freed_bytes: after.freed_bytes - before.freed_bytes,
    };
    (delta, out)
}

/// `big(k, v)` with `rows` rows, its batches and its index on `k` built.
pub fn big(rows: i64) -> Database {
    let mut db = Database::new();
    let columns = vec![
        ColumnDef::new("k", ValueType::Int),
        ColumnDef::new("v", ValueType::Int),
    ];
    db.create_table(TableSchema::new("big", columns).unwrap())
        .unwrap();
    for k in 0..rows {
        db.insert("big", vec![Value::Int(k), Value::Int(k % 10)])
            .unwrap();
    }
    db.table("big").unwrap().columnar().hash_index(0);
    db
}
